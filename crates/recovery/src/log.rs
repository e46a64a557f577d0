//! The stable log buffer (§2.4): redo-only, write-ahead, abort-by-discard.

use std::collections::HashMap;

/// Identifies one partition of one relation — the unit of recovery.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct PartitionKey {
    /// Catalog relation id.
    pub relation: u32,
    /// Partition number within the relation.
    pub partition: u32,
}

impl PartitionKey {
    /// Construct a key.
    #[must_use]
    pub fn new(relation: u32, partition: u32) -> Self {
        PartitionKey {
            relation,
            partition,
        }
    }
}

/// One redo record: the after-image of a partition touched by a
/// transaction.
#[derive(Debug, Clone)]
pub struct LogRecord {
    /// Log sequence number (assigned by the buffer; monotone).
    pub lsn: u64,
    /// Writing transaction.
    pub txn: u64,
    /// Which partition this image replaces.
    pub key: PartitionKey,
    /// The partition's byte image after the update.
    pub image: Vec<u8>,
}

/// The stable log buffer: survives crashes (battery-backed RAM in the
/// paper). Uncommitted records are staged per transaction; commit makes
/// them visible to the log device in LSN order; abort discards them —
/// *"the log entry is removed and no undo is needed"*. Records are
/// full-partition after-images, so the newest committed image of a
/// partition supersedes every older one: commit drops those, so the
/// committed backlog does not grow with the number of commits when no
/// log device drains it.
#[derive(Debug, Default)]
pub struct StableLogBuffer {
    next_lsn: u64,
    /// Staged records of live (uncommitted) transactions.
    staged: Vec<LogRecord>,
    /// Committed records awaiting the log device, in commit order.
    committed: Vec<LogRecord>,
    /// Committed records dropped because a newer committed image of the
    /// same partition arrived before the log device pulled them.
    superseded: u64,
}

impl StableLogBuffer {
    /// Create an empty buffer.
    #[must_use]
    pub fn new() -> Self {
        StableLogBuffer::default()
    }

    /// Write-ahead: stage the after-image of `key` for `txn`. Must be
    /// called *before* the in-memory database applies the update.
    pub fn log(&mut self, txn: u64, key: PartitionKey, image: Vec<u8>) {
        let lsn = self.next_lsn;
        self.next_lsn += 1;
        self.staged.push(LogRecord {
            lsn,
            txn,
            key,
            image,
        });
    }

    /// Commit: move the transaction's records to the committed queue,
    /// dropping every committed image they supersede (an older LSN of a
    /// partition they rewrite).
    pub fn commit(&mut self, txn: u64) {
        let mut moved: Vec<LogRecord> = Vec::new();
        self.staged.retain_mut(|r| {
            if r.txn == txn {
                moved.push(LogRecord {
                    lsn: r.lsn,
                    txn: r.txn,
                    key: r.key,
                    image: std::mem::take(&mut r.image),
                });
                false
            } else {
                true
            }
        });
        if moved.is_empty() {
            return;
        }
        moved.sort_by_key(|r| r.lsn);
        let newest: HashMap<PartitionKey, u64> = moved.iter().map(|r| (r.key, r.lsn)).collect();
        self.committed.extend(moved);
        let before = self.committed.len();
        self.committed
            .retain(|r| newest.get(&r.key).is_none_or(|&lsn| r.lsn >= lsn));
        self.superseded += (before - self.committed.len()) as u64;
    }

    /// Committed records dropped so far because a newer committed image
    /// of the same partition superseded them before the log device
    /// pulled them.
    #[must_use]
    pub fn superseded(&self) -> u64 {
        self.superseded
    }

    /// Abort: discard the transaction's staged records.
    pub fn abort(&mut self, txn: u64) {
        self.staged.retain(|r| r.txn != txn);
    }

    /// Drain the committed queue (called by the log device).
    pub fn drain_committed(&mut self) -> Vec<LogRecord> {
        std::mem::take(&mut self.committed)
    }

    /// Committed records not yet drained, newest image per key — used at
    /// restart to merge updates the log device has not seen yet.
    #[must_use]
    pub fn committed_images(&self) -> HashMap<PartitionKey, &LogRecord> {
        let mut map = HashMap::new();
        for r in &self.committed {
            let e = map.entry(r.key).or_insert(r);
            if r.lsn >= e.lsn {
                *e = r;
            }
        }
        map
    }

    /// Number of staged (uncommitted) records.
    #[must_use]
    pub fn staged_len(&self) -> usize {
        self.staged.len()
    }

    /// Discard every staged (uncommitted) record — the crash path:
    /// in-flight transactions died with the CPU. Committed records and
    /// the LSN counter are untouched, so cross-layer LSN comparisons
    /// (buffer vs device accumulation) stay valid across the crash.
    pub fn discard_staged(&mut self) {
        self.staged.clear();
    }

    /// Introspection for `mmdb-check`: staged records in log order.
    #[cfg(feature = "check")]
    #[must_use]
    pub fn staged_records(&self) -> &[LogRecord] {
        &self.staged
    }

    /// Introspection for `mmdb-check`: committed records in commit order.
    #[cfg(feature = "check")]
    #[must_use]
    pub fn committed_records(&self) -> &[LogRecord] {
        &self.committed
    }

    /// The next LSN the buffer will assign (every existing record's LSN is
    /// strictly below this). Checkpoints use this as their truncation cut.
    #[must_use]
    pub fn next_lsn(&self) -> u64 {
        self.next_lsn
    }

    /// Checkpoint truncation: drop committed records of `key` whose LSN is
    /// strictly below `below_lsn` — a checkpoint image written at cut
    /// `below_lsn` supersedes them. Staged records are never truncated
    /// (they are uncommitted; the checkpoint image carries no uncommitted
    /// data). Returns the number of records dropped.
    pub fn truncate_committed(&mut self, key: PartitionKey, below_lsn: u64) -> usize {
        let before = self.committed.len();
        self.committed
            .retain(|r| !(r.key == key && r.lsn < below_lsn));
        before - self.committed.len()
    }

    /// Corruption hook (negative tests only): mutable access to committed
    /// records, so tests can break LSN ordering and watch the checker
    /// reject it.
    #[cfg(feature = "check")]
    pub fn committed_records_mut(&mut self) -> &mut [LogRecord] {
        &mut self.committed
    }

    /// Number of committed records awaiting the log device.
    #[must_use]
    pub fn committed_len(&self) -> usize {
        self.committed.len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn k(p: u32) -> PartitionKey {
        PartitionKey::new(0, p)
    }

    #[test]
    fn commit_moves_records_in_lsn_order() {
        let mut b = StableLogBuffer::new();
        b.log(1, k(0), vec![1]);
        b.log(2, k(1), vec![2]);
        b.log(1, k(2), vec![3]);
        b.commit(1);
        assert_eq!(b.staged_len(), 1);
        let drained = b.drain_committed();
        assert_eq!(drained.len(), 2);
        assert!(drained[0].lsn < drained[1].lsn);
        assert_eq!(drained[0].key, k(0));
        assert_eq!(drained[1].key, k(2));
    }

    #[test]
    fn abort_discards_without_undo() {
        let mut b = StableLogBuffer::new();
        b.log(1, k(0), vec![1]);
        b.log(1, k(1), vec![2]);
        b.abort(1);
        assert_eq!(b.staged_len(), 0);
        b.commit(1); // no-op
        assert!(b.drain_committed().is_empty());
    }

    #[test]
    fn committed_images_keeps_newest_per_key() {
        let mut b = StableLogBuffer::new();
        b.log(1, k(5), vec![1]);
        b.log(1, k(5), vec![2]);
        b.commit(1);
        b.log(2, k(5), vec![3]);
        b.commit(2);
        let map = b.committed_images();
        assert_eq!(map[&k(5)].image, vec![3]);
    }

    #[test]
    fn commit_supersedes_older_committed_images() {
        let mut b = StableLogBuffer::new();
        for txn in 0..10u64 {
            b.log(txn, k((txn % 2) as u32), vec![txn as u8]);
            b.commit(txn);
        }
        // One image per partition is left: the newest.
        assert_eq!(b.committed_len(), 2);
        assert_eq!(b.superseded(), 8);
        let map = b.committed_images();
        assert_eq!(map[&k(0)].image, vec![8]);
        assert_eq!(map[&k(1)].image, vec![9]);
        // A transaction that logs one partition twice keeps its later image.
        b.log(10, k(0), vec![10]);
        b.log(10, k(0), vec![11]);
        b.commit(10);
        assert_eq!(b.superseded(), 10);
        let drained = b.drain_committed();
        assert_eq!(drained.len(), 2);
        assert!(drained[0].lsn < drained[1].lsn);
        assert_eq!(drained[1].image, vec![11]);
    }

    #[test]
    fn interleaved_transactions_stay_separate() {
        let mut b = StableLogBuffer::new();
        b.log(1, k(0), vec![1]);
        b.log(2, k(0), vec![2]);
        b.abort(1);
        b.commit(2);
        let drained = b.drain_committed();
        assert_eq!(drained.len(), 1);
        assert_eq!(drained[0].image, vec![2]);
    }
}
