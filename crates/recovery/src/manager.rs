//! The recovery manager: ties buffer, device, and disk copy together and
//! implements the §2.4 restart protocol (working set first, background
//! reload after).

use crate::device::LogDevice;
use crate::disk::StableStore;
use crate::log::{PartitionKey, StableLogBuffer};
use crate::replay::RestartPlan;
use std::collections::HashSet;

/// Which restart phase produced a recovered partition image.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum RestartPhase {
    /// Requested by a current transaction's working set — loaded first so
    /// "normal processing \[can\] continue immediately".
    WorkingSet,
    /// Loaded afterwards "by a background process".
    Background,
}

/// The recovery manager. `S` is the disk-copy backend.
pub struct RecoveryManager<S: StableStore> {
    buffer: StableLogBuffer,
    device: LogDevice,
    disk: S,
    /// Partition images written by checkpoints (diagnostics).
    images_checkpointed: u64,
}

impl<S: StableStore> RecoveryManager<S> {
    /// Create a manager over a disk copy.
    pub fn new(disk: S) -> Self {
        RecoveryManager {
            buffer: StableLogBuffer::new(),
            device: LogDevice::new(),
            disk,
            images_checkpointed: 0,
        }
    }

    /// Write-ahead (§2.4: before the in-memory update) the after-image of
    /// a partition.
    pub fn log_update(&mut self, txn: u64, key: PartitionKey, image: Vec<u8>) {
        self.buffer.log(txn, key, image);
    }

    /// Commit a transaction: its records become visible to the log device.
    pub fn commit(&mut self, txn: u64) {
        self.buffer.commit(txn);
    }

    /// Abort: drop the transaction's records; no undo is ever needed.
    pub fn abort(&mut self, txn: u64) {
        self.buffer.abort(txn);
    }

    /// One cycle of the active log device: pull committed records and
    /// propagate accumulated images to the disk copy.
    pub fn run_log_device(&mut self) -> std::io::Result<()> {
        self.device.poll(&mut self.buffer);
        self.device.flush(&mut self.disk)
    }

    /// Pull committed records into the accumulation log *without*
    /// flushing (models the device lagging behind the log).
    pub fn run_log_device_poll_only(&mut self) {
        self.device.poll(&mut self.buffer);
    }

    /// Introspection for `mmdb-check`: the stable log buffer.
    #[cfg(feature = "check")]
    #[must_use]
    pub fn log_buffer(&self) -> &StableLogBuffer {
        &self.buffer
    }

    // ---- checkpointing -------------------------------------------------

    /// The LSN cut for a (fuzzy) checkpoint of one partition: every
    /// committed record below this cut is reflected in the partition's
    /// in-memory state *right now*, so an image captured immediately
    /// after taking the cut supersedes all of them. Take the cut, then
    /// serialize the image, then call
    /// [`RecoveryManager::checkpoint_image`] — updates landing between
    /// two partitions' checkpoints get cuts of their own.
    #[must_use]
    pub fn checkpoint_cut(&self) -> u64 {
        self.buffer.next_lsn()
    }

    /// Write a checkpointed partition image to the disk copy and, only
    /// once that write succeeded, truncate the log up to the cut: drop
    /// committed buffer records and the device's accumulated image for
    /// `key` with LSN below `cut`. Returns the number of log entries
    /// truncated (not counting the guard copy below). On a write error
    /// nothing is truncated — the log still covers the partition, so a
    /// crash before a retry loses nothing.
    ///
    /// The disk write overwrites the previous image *in place*, and the
    /// log records it covered may already have been drained by earlier
    /// flushes — so a power cut that tears this write would otherwise
    /// destroy the only durable copy. Guard: the image is first staged
    /// into the device's (crash-surviving) accumulation log at
    /// `cut - 1`, and only removed by the truncation that follows a
    /// successful write. A torn write under power cut therefore leaves
    /// the guard copy for restart; only a *lying* disk (reporting
    /// success for a torn write) loses it — and restart detects that
    /// case as a corrupt image instead of redoing it.
    pub fn checkpoint_image(
        &mut self,
        key: PartitionKey,
        image: &[u8],
        cut: u64,
    ) -> std::io::Result<usize> {
        let had_device_entry = self.device.pending(key).is_some();
        let guard = cut > 0;
        if guard {
            self.device.stage(key, cut - 1, image.to_vec());
        }
        self.disk.write(key, image)?;
        self.images_checkpointed += 1;
        let from_buffer = self.buffer.truncate_committed(key, cut);
        let from_device = self.device.truncate(key, cut);
        // The guard copy (if it replaced nothing) is bookkeeping, not a
        // truncated log record — keep it out of the count.
        let from_device = if guard {
            usize::from(had_device_entry && from_device > 0)
        } else {
            from_device
        };
        Ok(from_buffer + from_device)
    }

    /// Total partition images written by checkpoints.
    #[must_use]
    pub fn images_checkpointed(&self) -> u64 {
        self.images_checkpointed
    }

    /// Committed records still waiting in the stable buffer (diagnostics).
    #[must_use]
    pub fn committed_backlog(&self) -> usize {
        self.buffer.committed_len()
    }

    /// Persist a metadata blob (the catalog) on the disk copy.
    pub fn write_meta(&mut self, name: &str, bytes: &[u8]) -> std::io::Result<()> {
        self.disk.write_meta(name, bytes)
    }

    /// Read a metadata blob.
    pub fn read_meta(&self, name: &str) -> std::io::Result<Option<Vec<u8>>> {
        self.disk.read_meta(name)
    }

    /// Model a crash: the volatile (memory-resident) database is gone.
    /// The stable log buffer, the log device's accumulation log, and the
    /// disk copy all survive — that is the §2.4 hardware assumption. Any
    /// *staged* (uncommitted) records are discarded, exactly as a redo-only
    /// log requires.
    pub fn crash_volatile(&mut self) {
        // Discard uncommitted work: in-flight transactions died with the
        // CPU. (Committed-but-unflushed records survive in the buffer.)
        // This must not renumber surviving records: device-accumulated
        // images carry the original LSNs, and restart compares across
        // the two layers — a rebuilt buffer restarting at LSN 0 would
        // let stale device images outrank fresher committed records.
        self.buffer.discard_staged();
    }

    /// The freshest recoverable image of `key`: committed-but-unpulled log
    /// records first, then the device's accumulation log, then the disk
    /// copy.
    pub fn recover_image(&self, key: PartitionKey) -> std::io::Result<Option<Vec<u8>>> {
        let committed = self.buffer.committed_images();
        let from_buffer = committed.get(&key).map(|r| (r.lsn, r.image.clone()));
        let from_device = self
            .device
            .pending(key)
            .map(|(lsn, img)| (lsn, img.to_vec()));
        let freshest = match (from_buffer, from_device) {
            (Some(a), Some(b)) => Some(if a.0 >= b.0 { a } else { b }),
            (Some(a), None) => Some(a),
            (None, Some(b)) => Some(b),
            (None, None) => None,
        };
        if let Some((_, img)) = freshest {
            return Ok(Some(img));
        }
        self.disk.read(key)
    }

    /// The two-phase §2.4 restart plan: the (deduplicated) working-set
    /// keys in request order, then every other partition known to any
    /// layer — disk copy, log-device accumulation, committed buffer
    /// records — in sorted order. Resolving the plan touches no images;
    /// [`RecoveryManager::restart`] and
    /// [`RecoveryManager::restart_with`] fetch them.
    pub fn restart_plan(&self, working_set: &[PartitionKey]) -> std::io::Result<RestartPlan> {
        let mut seen: HashSet<PartitionKey> = HashSet::new();
        let mut ws = Vec::with_capacity(working_set.len());
        for &key in working_set {
            if seen.insert(key) {
                ws.push(key);
            }
        }
        let mut rest: Vec<PartitionKey> = self.disk.keys()?;
        rest.extend(self.device.pending_keys());
        rest.extend(self.buffer.committed_images().keys().copied());
        rest.sort_unstable();
        rest.dedup();
        rest.retain(|key| seen.insert(*key));
        Ok(RestartPlan {
            working_set: ws,
            background: rest,
        })
    }

    /// The §2.4 restart sequence: yields `(key, image, phase)` with every
    /// working-set partition first (disk image merged with unapplied log
    /// updates on the fly), then the remainder of the database.
    pub fn restart(
        &self,
        working_set: &[PartitionKey],
    ) -> std::io::Result<Vec<(PartitionKey, Vec<u8>, RestartPhase)>> {
        let plan = self.restart_plan(working_set)?;
        let mut out = Vec::with_capacity(plan.len());
        for (key, phase) in plan.entries() {
            if let Some(img) = self.recover_image(key)? {
                out.push((key, img, phase));
            }
        }
        Ok(out)
    }

    /// Access the disk copy (tests, tools).
    pub fn disk(&self) -> &S {
        &self.disk
    }

    /// Committed records the stable buffer dropped because a newer
    /// committed image of the same partition superseded them before the
    /// log device pulled them.
    #[must_use]
    pub fn superseded_records(&self) -> u64 {
        self.buffer.superseded()
    }

    /// Log-device diagnostics: `(records pulled, images flushed)`.
    pub fn device_counters(&self) -> (u64, u64) {
        (self.device.pulled(), self.device.flushed())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::disk::MemDisk;

    fn k(p: u32) -> PartitionKey {
        PartitionKey::new(0, p)
    }

    fn mgr() -> RecoveryManager<MemDisk> {
        RecoveryManager::new(MemDisk::new())
    }

    #[test]
    fn committed_work_survives_crash_at_every_stage() {
        // Stage 1: committed, still in the stable buffer.
        let mut m = mgr();
        m.log_update(1, k(0), vec![1]);
        m.commit(1);
        m.crash_volatile();
        assert_eq!(m.recover_image(k(0)).unwrap(), Some(vec![1]));

        // Stage 2: pulled into the device's accumulation log.
        let mut m = mgr();
        m.log_update(1, k(0), vec![2]);
        m.commit(1);
        m.run_log_device_poll_only();
        m.crash_volatile();
        assert_eq!(m.recover_image(k(0)).unwrap(), Some(vec![2]));

        // Stage 3: flushed to the disk copy.
        let mut m = mgr();
        m.log_update(1, k(0), vec![3]);
        m.commit(1);
        m.run_log_device().unwrap();
        m.crash_volatile();
        assert_eq!(m.recover_image(k(0)).unwrap(), Some(vec![3]));
    }

    #[test]
    fn uncommitted_work_never_survives() {
        let mut m = mgr();
        m.log_update(1, k(0), vec![1]);
        m.commit(1);
        m.log_update(2, k(0), vec![99]); // uncommitted overwrite attempt
        m.crash_volatile();
        assert_eq!(m.recover_image(k(0)).unwrap(), Some(vec![1]));
    }

    #[test]
    fn aborted_work_never_survives() {
        let mut m = mgr();
        m.log_update(1, k(0), vec![1]);
        m.abort(1);
        m.run_log_device().unwrap();
        assert_eq!(m.recover_image(k(0)).unwrap(), None);
    }

    #[test]
    fn freshest_image_wins_across_layers() {
        let mut m = mgr();
        // Old image on disk.
        m.log_update(1, k(0), vec![1]);
        m.commit(1);
        m.run_log_device().unwrap();
        // Newer image stuck in the device.
        m.log_update(2, k(0), vec![2]);
        m.commit(2);
        m.run_log_device_poll_only();
        // Newest image still in the buffer.
        m.log_update(3, k(0), vec![3]);
        m.commit(3);
        m.crash_volatile();
        assert_eq!(m.recover_image(k(0)).unwrap(), Some(vec![3]));
    }

    #[test]
    fn restart_orders_working_set_first() {
        let mut m = mgr();
        for p in 0..6u32 {
            m.log_update(u64::from(p), k(p), vec![p as u8]);
            m.commit(u64::from(p));
        }
        m.run_log_device().unwrap();
        m.crash_volatile();
        let plan = m.restart(&[k(4), k(1)]).unwrap();
        assert_eq!(plan.len(), 6);
        assert_eq!(plan[0].0, k(4));
        assert_eq!(plan[0].2, RestartPhase::WorkingSet);
        assert_eq!(plan[1].0, k(1));
        assert_eq!(plan[1].2, RestartPhase::WorkingSet);
        for (key, img, phase) in &plan[2..] {
            assert_eq!(*phase, RestartPhase::Background);
            assert_eq!(img[0] as u32, key.partition);
        }
    }

    #[test]
    fn restart_merges_unapplied_updates_on_the_fly() {
        let mut m = mgr();
        m.log_update(1, k(0), vec![1]);
        m.commit(1);
        m.run_log_device().unwrap(); // on disk: [1]
        m.log_update(2, k(0), vec![2]);
        m.commit(2); // newer, only in buffer
        m.crash_volatile();
        let plan = m.restart(&[k(0)]).unwrap();
        assert_eq!(plan[0].1, vec![2], "restart must merge the log update");
    }

    #[test]
    fn checkpoint_truncates_covered_records_and_disk_takes_over() {
        let mut m = mgr();
        // One record stuck in the device, one newer in the buffer.
        m.log_update(1, k(0), vec![1]);
        m.commit(1);
        m.run_log_device_poll_only();
        m.log_update(2, k(0), vec![2]);
        m.commit(2);
        let cut = m.checkpoint_cut();
        let truncated = m.checkpoint_image(k(0), &[9], cut).unwrap();
        assert_eq!(truncated, 2, "device + buffer records both superseded");
        assert_eq!(m.images_checkpointed(), 1);
        assert_eq!(m.committed_backlog(), 0);
        m.crash_volatile();
        assert_eq!(
            m.recover_image(k(0)).unwrap(),
            Some(vec![9]),
            "after truncation the checkpoint image is the freshest copy"
        );
    }

    #[test]
    fn fuzzy_checkpoint_keeps_records_past_the_cut() {
        let mut m = mgr();
        m.log_update(1, k(0), vec![1]);
        m.commit(1);
        let cut = m.checkpoint_cut();
        // A commit lands between taking the cut and writing the image —
        // the fuzzy window. Its record must survive truncation.
        m.log_update(2, k(0), vec![2]);
        m.commit(2);
        let truncated = m.checkpoint_image(k(0), &[1], cut).unwrap();
        // The pre-cut record goes exactly once: superseded at commit by
        // the post-cut image, or truncated by the checkpoint.
        assert_eq!(
            truncated as u64 + m.superseded_records(),
            1,
            "only the pre-cut record is superseded"
        );
        m.crash_volatile();
        assert_eq!(
            m.recover_image(k(0)).unwrap(),
            Some(vec![2]),
            "the post-cut record must win over the checkpoint image"
        );
    }

    #[test]
    fn meta_blobs_roundtrip() {
        let mut m = mgr();
        m.write_meta("catalog", b"abc").unwrap();
        assert_eq!(m.read_meta("catalog").unwrap(), Some(b"abc".to_vec()));
        assert_eq!(m.read_meta("missing").unwrap(), None);
    }
}
