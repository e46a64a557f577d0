//! The multi-session transaction engine: strict 2PL at partition
//! granularity over a latched [`Database`].
//!
//! The paper (§2.5) argues a main-memory DBMS should lock *very large
//! granules* — partitions — because lock hold times are short and the CPU
//! cost of locking dominates. [`TxnEngine`] puts that design under real
//! concurrency: N sessions on N threads run read/write transactions
//! against one shared [`Database`], isolated by the partition
//! [`LockManager`] and serialized physically by a short-critical-section
//! engine latch.
//!
//! Two-level synchronization:
//!
//! * **The engine latch** (`Mutex<Database>`) serializes *physical* access
//!   to the shared data structures (relations, indexes, reuse cache,
//!   recovery buffers). It is only ever held for the duration of one
//!   operation — never across a blocking partition-lock acquisition, so a
//!   session waiting for a transaction lock cannot wedge the engine.
//! * **Partition locks** (shared [`LockManager`]) provide *logical*
//!   isolation across multi-operation transactions: reads S-lock every
//!   partition of each table they touch plus the table's
//!   [`APPEND_FENCE`]; writers X-lock their commit footprint (resolved
//!   partitions, predicted insert landings, and the fence for tables they
//!   grow). All locks are held to commit/abort — strict 2PL — so every
//!   committed history is conflict-serializable.
//!
//! Deadlocks are *detected*, not prevented: the lock manager's waits-for
//! graph refuses a wait that would close a cycle, the engine releases the
//! victim's locks, and the caller sees [`TxnError::Deadlock`]. Because
//! writes are deferred (buffered in the [`Transaction`], applied only at
//! commit once every lock is held), a victim's writes leave no trace — no
//! undo, in memory or in the log.
//!
//! Commit records are batched into the redo log by [`GroupCommit`]:
//! concurrent committers elect a leader per batch, the leader places every
//! member's commit marker into the stable log buffer under one latch
//! acquisition and runs the log device once, and followers wait for their
//! batch's completion. N writers thus amortize log-device flushes instead
//! of serializing on them.

use crate::db::{Database, TableId, APPEND_FENCE};
use crate::error::DbError;
use crate::txn::Transaction;
use mmdb_exec::Predicate;
use mmdb_lock::{LockError, LockManager, LockMode, LockTarget, TxnId};
use mmdb_recovery::{MemDisk, StableStore};
use mmdb_storage::{OwnedValue, TempList, TupleId};
use parking_lot::{Condvar, Mutex};
use std::collections::HashSet;
use std::sync::Arc;

// Compile-time proof that the engine can share the database across
// client threads: this regressing (e.g. an `Rc` reintroduced into the
// relation/index plumbing) should fail here, not at a distant use site.
const fn _assert_send<T: Send>() {}
const _: () = _assert_send::<Database<MemDisk>>();

/// A transaction-level failure, distinct from query-level [`DbError`]s so
/// callers can pattern-match the retryable case.
#[derive(Debug)]
pub enum TxnError {
    /// Waiting for a lock would have closed a waits-for cycle. The
    /// transaction has been aborted (buffered writes discarded, locks
    /// released); the caller should retry it from the top.
    Deadlock,
    /// Any other database error (the transaction is not auto-aborted).
    Db(DbError),
}

impl std::fmt::Display for TxnError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            TxnError::Deadlock => write!(f, "deadlock detected; transaction aborted"),
            TxnError::Db(e) => write!(f, "{e}"),
        }
    }
}

impl std::error::Error for TxnError {}

impl From<DbError> for TxnError {
    fn from(e: DbError) -> Self {
        match e {
            DbError::Lock(LockError::Deadlock) => TxnError::Deadlock,
            other => TxnError::Db(other),
        }
    }
}

impl From<LockError> for TxnError {
    fn from(e: LockError) -> Self {
        match e {
            LockError::Deadlock => TxnError::Deadlock,
            other => TxnError::Db(DbError::Lock(other)),
        }
    }
}

/// Group-commit lifetime counters.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct GroupCommitStats {
    /// Transactions whose commit record was made durable.
    pub commits: u64,
    /// Batches flushed (= log-device runs triggered by commits).
    pub batches: u64,
    /// Size of the largest batch flushed.
    pub largest_batch: usize,
}

#[derive(Debug, Default)]
struct GroupState {
    /// Members of the forming batch (joined, record not yet durable).
    pending: Vec<TxnId>,
    /// Generation the forming batch will flush as (1-based).
    next_gen: u64,
    /// Highest generation whose flush completed.
    completed: u64,
    /// A leader is currently out flushing a batch.
    leader_active: bool,
    stats: GroupCommitStats,
}

/// Leader/follower commit-record batching (see module docs).
#[derive(Debug)]
pub(crate) struct GroupCommit {
    state: Mutex<GroupState>,
    cv: Condvar,
}

impl GroupCommit {
    fn new() -> Self {
        GroupCommit {
            state: Mutex::new(GroupState {
                next_gen: 1,
                ..GroupState::default()
            }),
            cv: Condvar::new(),
        }
    }

    /// Join the forming batch and block until this transaction's commit
    /// record is durable. At most one thread (the batch leader) runs
    /// `flush` per generation; it receives every member of the batch.
    /// Invariant relied on below: a transaction in `pending` always
    /// belongs to generation `next_gen`, because the leader takes the
    /// whole pending set and bumps `next_gen` atomically.
    fn commit_with<F: FnOnce(&[TxnId])>(&self, id: TxnId, flush: F) {
        let mut s = self.state.lock();
        let my_gen = s.next_gen;
        s.pending.push(id);
        loop {
            if s.completed >= my_gen {
                return; // a leader flushed our batch
            }
            if !s.leader_active {
                // Become leader for our own generation.
                s.leader_active = true;
                let batch = std::mem::take(&mut s.pending);
                s.next_gen += 1;
                drop(s);
                flush(&batch);
                let mut s = self.state.lock();
                s.leader_active = false;
                s.completed = my_gen;
                s.stats.commits += batch.len() as u64;
                s.stats.batches += 1;
                s.stats.largest_batch = s.stats.largest_batch.max(batch.len());
                self.cv.notify_all();
                return;
            }
            self.cv.wait(&mut s);
        }
    }

    fn stats(&self) -> GroupCommitStats {
        self.state.lock().stats
    }
}

struct EngineInner<S: StableStore> {
    db: Mutex<Database<S>>,
    locks: Arc<LockManager>,
    group: GroupCommit,
}

/// The shared engine. Cheap to clone; hand a [`Session`] to each client
/// thread.
pub struct TxnEngine<S: StableStore = MemDisk> {
    inner: Arc<EngineInner<S>>,
}

impl<S: StableStore> Clone for TxnEngine<S> {
    fn clone(&self) -> Self {
        TxnEngine {
            inner: Arc::clone(&self.inner),
        }
    }
}

/// An open engine transaction: the buffered write set plus ownership of
/// its partition locks. Dropping a `Txn` without [`Session::commit`] or
/// [`Session::abort`] aborts it: its writes are discarded (they were only
/// buffered) and its locks are released.
pub struct Txn {
    inner: Transaction,
    /// The lock manager holding this transaction's locks; `None` once
    /// they are released, which a live `Txn` only sees after a deadlock
    /// abort doomed it.
    locks: Option<Arc<LockManager>>,
}

impl std::fmt::Debug for Txn {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "Txn({:?}, doomed: {})", self.inner, self.is_doomed())
    }
}

impl Drop for Txn {
    fn drop(&mut self) {
        self.release();
    }
}

impl Txn {
    /// Release every lock the transaction holds. Idempotent, so each
    /// transaction reaches [`LockManager::release_all`] exactly once.
    fn release(&mut self) {
        if let Some(locks) = self.locks.take() {
            locks.release_all(self.inner.id);
        }
    }

    fn is_doomed(&self) -> bool {
        self.locks.is_none()
    }

    /// The lock-manager transaction id.
    #[must_use]
    pub fn id(&self) -> u64 {
        self.inner.id()
    }

    /// True when the transaction has no buffered writes.
    #[must_use]
    pub fn is_read_only(&self) -> bool {
        self.inner.is_read_only()
    }
}

impl<S: StableStore> TxnEngine<S> {
    /// Wrap a database for multi-session use.
    #[must_use]
    pub fn new(db: Database<S>) -> Self {
        let locks = db.lock_manager();
        TxnEngine {
            inner: Arc::new(EngineInner {
                db: Mutex::new(db),
                locks,
                group: GroupCommit::new(),
            }),
        }
    }

    /// A session handle for one client thread.
    #[must_use]
    pub fn session(&self) -> Session<S> {
        Session {
            inner: Arc::clone(&self.inner),
        }
    }

    /// Run `f` with exclusive access to the database, outside any
    /// transaction. For administration (creating tables and indexes,
    /// checkpointing) before or between concurrent phases — `f` bypasses
    /// partition locking, so do not interleave it with live transactions
    /// that touch the same tables.
    pub fn with_db<R>(&self, f: impl FnOnce(&mut Database<S>) -> R) -> R {
        f(&mut self.inner.db.lock())
    }

    /// Group-commit counters (batching effectiveness).
    #[must_use]
    pub fn group_commit_stats(&self) -> GroupCommitStats {
        self.inner.group.stats()
    }

    /// Total lock requests issued through the shared lock manager.
    #[must_use]
    pub fn lock_request_count(&self) -> u64 {
        self.inner.locks.request_count()
    }

    /// Unwrap the engine back into the database. Returns `None` while
    /// other handles (engine clones or sessions) are still alive.
    #[must_use]
    pub fn into_inner(self) -> Option<Database<S>> {
        Arc::try_unwrap(self.inner)
            .ok()
            .map(|inner| inner.db.into_inner())
    }
}

/// A per-client handle: begin/read/write/commit/abort. Clone freely —
/// sessions are interchangeable; isolation lives with the [`Txn`], not
/// the session.
pub struct Session<S: StableStore = MemDisk> {
    inner: Arc<EngineInner<S>>,
}

impl<S: StableStore> Clone for Session<S> {
    fn clone(&self) -> Self {
        Session {
            inner: Arc::clone(&self.inner),
        }
    }
}

impl<S: StableStore> Session<S> {
    /// Open a transaction.
    #[must_use]
    pub fn begin(&self) -> Txn {
        Txn {
            inner: Transaction::new(self.inner.locks.begin()),
            locks: Some(Arc::clone(&self.inner.locks)),
        }
    }

    /// Acquire `target` for `txn`, blocking outside the engine latch; on
    /// deadlock the transaction is doomed (locks released) and
    /// [`TxnError::Deadlock`] returned.
    fn acquire(&self, txn: &mut Txn, target: LockTarget, mode: LockMode) -> Result<(), TxnError> {
        if txn.is_doomed() {
            return Err(TxnError::Deadlock);
        }
        match self.inner.locks.lock(txn.inner.id, target, mode) {
            Ok(()) => Ok(()),
            Err(e) => {
                txn.release();
                Err(e.into())
            }
        }
    }

    /// S-lock every partition of `table` plus its append fence, looping
    /// until the partition count is stable (a table that grew mid-loop is
    /// re-covered; once the fence is held shared, it cannot grow again).
    fn lock_table_read(&self, txn: &mut Txn, table: &str) -> Result<TableId, TxnError> {
        let (t, mut n) = {
            let db = self.inner.db.lock();
            let t = db.resolve_table(table).map_err(TxnError::Db)?;
            (t, db.table_partition_count(t))
        };
        loop {
            for p in 0..n {
                self.acquire(txn, LockTarget::new(t as u32, p as u32), LockMode::Shared)?;
            }
            self.acquire(
                txn,
                LockTarget::new(t as u32, APPEND_FENCE),
                LockMode::Shared,
            )?;
            let now = self.inner.db.lock().table_partition_count(t);
            if now == n {
                return Ok(t);
            }
            n = now;
        }
    }

    /// Run a read closure against the database with `tables` S-locked for
    /// the rest of the transaction (repeatable reads, no phantoms). The
    /// closure runs under the engine latch — keep it to query work.
    pub fn read<R>(
        &self,
        txn: &mut Txn,
        tables: &[&str],
        f: impl FnOnce(&Database<S>) -> Result<R, DbError>,
    ) -> Result<R, TxnError> {
        for table in tables {
            self.lock_table_read(txn, table)?;
        }
        let db = self.inner.db.lock();
        f(&db).map_err(TxnError::Db)
    }

    /// Transactional selection (the §4 access-path preference ordering).
    pub fn select(
        &self,
        txn: &mut Txn,
        table: &str,
        attr: &str,
        pred: &Predicate,
    ) -> Result<TempList, TxnError> {
        self.read(txn, &[table], |db| db.select(table, attr, pred))
    }

    /// Transactional selection materialized to owned attribute values.
    pub fn select_values(
        &self,
        txn: &mut Txn,
        table: &str,
        attr: &str,
        pred: &Predicate,
        attrs: &[&str],
    ) -> Result<Vec<Vec<OwnedValue>>, TxnError> {
        self.read(txn, &[table], |db| {
            let tids = db.select(table, attr, pred)?;
            let flat: Vec<TupleId> = tids.iter().map(|row| row[0]).collect();
            db.fetch(table, &flat, attrs)
        })
    }

    /// Buffer an insert.
    pub fn insert(
        &self,
        txn: &mut Txn,
        table: &str,
        values: Vec<OwnedValue>,
    ) -> Result<(), TxnError> {
        if txn.is_doomed() {
            return Err(TxnError::Deadlock);
        }
        let db = self.inner.db.lock();
        db.insert(&mut txn.inner, table, values)
            .map_err(TxnError::Db)
    }

    /// Buffer a single-attribute update.
    pub fn update(
        &self,
        txn: &mut Txn,
        table: &str,
        tid: TupleId,
        attr: &str,
        value: OwnedValue,
    ) -> Result<(), TxnError> {
        if txn.is_doomed() {
            return Err(TxnError::Deadlock);
        }
        let db = self.inner.db.lock();
        db.update(&mut txn.inner, table, tid, attr, value)
            .map_err(TxnError::Db)
    }

    /// Buffer a delete.
    pub fn delete(&self, txn: &mut Txn, table: &str, tid: TupleId) -> Result<(), TxnError> {
        if txn.is_doomed() {
            return Err(TxnError::Deadlock);
        }
        let db = self.inner.db.lock();
        db.delete(&mut txn.inner, table, tid).map_err(TxnError::Db)
    }

    /// Commit: X-lock the write footprint (outside the latch), apply and
    /// write-ahead-log the writes under the latch, group-commit the
    /// record, release all locks. Returns inserted tuple ids in order.
    ///
    /// The footprint is predicted, acquired, then *re-validated under the
    /// latch* in a loop: only when a latch-held recomputation shows every
    /// needed lock already granted do the writes apply — so a transaction
    /// that deadlocks during acquisition has touched nothing.
    ///
    /// On every failure path the transaction is dropped, which releases
    /// its locks.
    pub fn commit(&self, mut txn: Txn) -> Result<Vec<TupleId>, TxnError> {
        if txn.is_doomed() {
            return Err(TxnError::Deadlock);
        }
        if txn.is_read_only() {
            txn.release();
            return Ok(Vec::new());
        }
        let id = txn.inner.id;

        // Phase A: acquire + revalidate + apply.
        let mut targets = self.inner.db.lock().commit_lock_targets(&txn.inner)?;
        let inserted = loop {
            for target in &targets {
                self.inner.locks.lock(id, *target, LockMode::Exclusive)?;
            }
            let mut db = self.inner.db.lock();
            let now = db.commit_lock_targets(&txn.inner)?;
            let held: HashSet<LockTarget> = self.inner.locks.held(id).into_iter().collect();
            if now.iter().all(|x| held.contains(x)) {
                let writes = std::mem::take(&mut txn.inner.writes);
                match db.apply_and_log(id, writes) {
                    Ok(ins) => break ins,
                    Err(e) => {
                        db.mark_aborted(id);
                        return Err(TxnError::Db(e));
                    }
                }
            }
            targets = now;
        };

        // Phase B: group-commit the record, then release (strict 2PL —
        // locks outlive the commit record, never the other way round).
        self.inner.group.commit_with(id, |batch| {
            let mut db = self.inner.db.lock();
            for member in batch {
                db.mark_committed(*member);
            }
            // Push committed records toward the disk copy; device errors
            // (e.g. an injected power cut) do not fail the commit — the
            // record is already in the stable log buffer, which is the
            // durability point (§2.4 stable memory).
            let _ = db.run_log_device();
        });
        txn.release();
        Ok(inserted)
    }

    /// Abort: discard buffered writes, release all locks. No undo is ever
    /// needed (deferred writes). Dropping the [`Txn`] does the same.
    pub fn abort(&self, txn: Txn) {
        self.inner.db.lock().mark_aborted(txn.inner.id);
    }

    /// Run `body` in a fresh transaction, committing on success and
    /// retrying (up to `attempts` times) when it or the commit deadlocks.
    /// Returns the body result and the committed transaction's inserted
    /// tuple ids.
    pub fn with_retry<R>(
        &self,
        attempts: usize,
        mut body: impl FnMut(&Session<S>, &mut Txn) -> Result<R, TxnError>,
    ) -> Result<(R, Vec<TupleId>), TxnError> {
        for _ in 0..attempts {
            let mut txn = self.begin();
            match body(self, &mut txn) {
                Ok(r) => match self.commit(txn) {
                    Ok(ins) => return Ok((r, ins)),
                    Err(TxnError::Deadlock) => {}
                    Err(e) => return Err(e),
                },
                Err(TxnError::Deadlock) => {} // already doomed + released
                Err(e) => {
                    self.abort(txn);
                    return Err(e);
                }
            }
        }
        Err(TxnError::Deadlock)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mmdb_storage::{AttrType, Schema};
    use std::sync::mpsc;
    use std::thread;

    fn engine_with_table() -> TxnEngine {
        let engine = TxnEngine::new(Database::in_memory());
        engine.with_db(|db| {
            let schema = Schema::of(&[("k", AttrType::Int), ("v", AttrType::Int)]);
            db.create_table("t", schema).unwrap();
            db.create_index("t_k", "t", "k", crate::IndexKind::Hash)
                .unwrap();
        });
        engine
    }

    #[test]
    fn single_session_insert_select() {
        let engine = engine_with_table();
        let session = engine.session();
        let mut txn = session.begin();
        session
            .insert(&mut txn, "t", vec![OwnedValue::Int(1), OwnedValue::Int(10)])
            .unwrap();
        let ins = session.commit(txn).unwrap();
        assert_eq!(ins.len(), 1);

        let mut txn = session.begin();
        let rows = session
            .select_values(
                &mut txn,
                "t",
                "k",
                &Predicate::Eq(mmdb_storage::KeyValue::Int(1)),
                &["v"],
            )
            .unwrap();
        assert_eq!(rows, vec![vec![OwnedValue::Int(10)]]);
        session.commit(txn).unwrap();
    }

    #[test]
    fn group_commit_batches_concurrent_committers() {
        // Deterministically force a multi-member batch: the first
        // committer's flush blocks on a channel while two more join the
        // forming batch; the blocked leader's batch is a singleton, the
        // next leader takes both followers at once.
        let gc = GroupCommit::new();
        let gc = Arc::new(gc);
        let (enter_tx, enter_rx) = mpsc::channel();
        let (release_tx, release_rx) = mpsc::channel::<()>();

        let g1 = Arc::clone(&gc);
        let leader = thread::spawn(move || {
            g1.commit_with(TxnId(1), |batch| {
                enter_tx.send(batch.len()).ok();
                release_rx.recv().ok();
            });
        });
        // Wait until txn 1's leader is inside its flush.
        let first_batch = enter_rx.recv().unwrap_or(0);
        assert_eq!(first_batch, 1);

        let followers: Vec<_> = [2u64, 3u64]
            .into_iter()
            .map(|id| {
                let g = Arc::clone(&gc);
                thread::spawn(move || {
                    g.commit_with(TxnId(id), |_| {});
                })
            })
            .collect();
        // Let the followers enqueue, then release the blocked leader.
        while gc.state.lock().pending.len() < 2 {
            thread::yield_now();
        }
        release_tx.send(()).ok();
        leader.join().ok();
        for f in followers {
            f.join().ok();
        }

        let stats = gc.stats();
        assert_eq!(stats.commits, 3);
        assert_eq!(stats.batches, 2);
        assert_eq!(stats.largest_batch, 2);
    }

    #[test]
    fn dropped_txn_releases_its_locks() {
        let engine = engine_with_table();
        let reader = engine.session();
        let mut txn = reader.begin();
        reader
            .select(
                &mut txn,
                "t",
                "k",
                &Predicate::Eq(mmdb_storage::KeyValue::Int(1)),
            )
            .unwrap();
        drop(txn);

        // The writer needs X locks that conflict with the dropped
        // reader's S locks; it would block forever if they leaked.
        let writer = engine.session();
        let (done_tx, done_rx) = mpsc::channel();
        let writer_thread = thread::spawn(move || {
            let mut txn = writer.begin();
            writer
                .insert(&mut txn, "t", vec![OwnedValue::Int(2), OwnedValue::Int(20)])
                .unwrap();
            done_tx.send(writer.commit(txn).map(|ins| ins.len())).ok();
        });
        let committed = done_rx
            .recv_timeout(std::time::Duration::from_secs(10))
            .expect("writer blocked behind a dropped transaction's locks");
        writer_thread.join().unwrap();
        assert_eq!(committed.unwrap(), 1);
    }

    #[test]
    fn engine_unwraps_after_sessions_drop() {
        let engine = engine_with_table();
        let session = engine.session();
        drop(session);
        assert!(engine.into_inner().is_some());
    }
}
