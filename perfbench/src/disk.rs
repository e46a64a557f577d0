//! A counting, span-recording wrapper around the in-memory disk copy.
//!
//! The counters are atomics behind an `Arc`, so the benchmark keeps a
//! handle after the `Database` takes ownership of the disk, and the
//! wrapper stays `Sync` for `recover_with`'s parallel image fetch.

use crate::trace;
use mmdb_recovery::{MemDisk, PartitionKey, StableStore};
use std::collections::HashMap;
use std::io;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

/// Lifetime counters of one [`CountingDisk`]. Each is a statistic that
/// publishes no other data, hence `Relaxed`.
#[derive(Debug, Default)]
pub struct DiskCounters {
    writes: AtomicU64,
    bytes_written: AtomicU64,
    reads: AtomicU64,
    bytes_read: AtomicU64,
    stored_bytes: AtomicU64,
}

/// A point-in-time copy of [`DiskCounters`].
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct DiskSnapshot {
    /// Image and metadata writes.
    pub writes: u64,
    /// Bytes those writes carried.
    pub bytes_written: u64,
    /// Image and metadata reads that found data.
    pub reads: u64,
    /// Bytes those reads returned.
    pub bytes_read: u64,
    /// Bytes the disk copy holds now (images plus metadata).
    pub stored_bytes: u64,
}

impl DiskSnapshot {
    /// Counter growth since `earlier` (`stored_bytes` is the current value).
    #[must_use]
    pub fn since(&self, earlier: &DiskSnapshot) -> DiskSnapshot {
        DiskSnapshot {
            writes: self.writes - earlier.writes,
            bytes_written: self.bytes_written - earlier.bytes_written,
            reads: self.reads - earlier.reads,
            bytes_read: self.bytes_read - earlier.bytes_read,
            stored_bytes: self.stored_bytes,
        }
    }
}

impl DiskCounters {
    /// Read every counter.
    #[must_use]
    pub fn snapshot(&self) -> DiskSnapshot {
        DiskSnapshot {
            writes: self.writes.load(Ordering::Relaxed),
            bytes_written: self.bytes_written.load(Ordering::Relaxed),
            reads: self.reads.load(Ordering::Relaxed),
            bytes_read: self.bytes_read.load(Ordering::Relaxed),
            stored_bytes: self.stored_bytes.load(Ordering::Relaxed),
        }
    }

    fn wrote(&self, len: usize, replaced: Option<usize>) {
        self.writes.fetch_add(1, Ordering::Relaxed);
        self.bytes_written.fetch_add(len as u64, Ordering::Relaxed);
        self.stored_bytes.fetch_add(len as u64, Ordering::Relaxed);
        if let Some(old) = replaced {
            self.stored_bytes.fetch_sub(old as u64, Ordering::Relaxed);
        }
    }

    fn read(&self, found: Option<&Vec<u8>>) {
        if let Some(bytes) = found {
            self.reads.fetch_add(1, Ordering::Relaxed);
            self.bytes_read
                .fetch_add(bytes.len() as u64, Ordering::Relaxed);
        }
    }
}

/// [`MemDisk`] with counted, traced reads and writes.
#[derive(Debug)]
pub struct CountingDisk {
    inner: MemDisk,
    image_sizes: HashMap<PartitionKey, usize>,
    meta_sizes: HashMap<String, usize>,
    counters: Arc<DiskCounters>,
}

impl CountingDisk {
    /// An empty disk and the handle to its counters.
    #[must_use]
    pub fn new() -> (CountingDisk, Arc<DiskCounters>) {
        let counters = Arc::new(DiskCounters::default());
        let disk = CountingDisk {
            inner: MemDisk::new(),
            image_sizes: HashMap::new(),
            meta_sizes: HashMap::new(),
            counters: Arc::clone(&counters),
        };
        (disk, counters)
    }
}

impl StableStore for CountingDisk {
    fn write(&mut self, key: PartitionKey, image: &[u8]) -> io::Result<()> {
        let _s = trace::span("recovery.disk.write");
        self.inner.write(key, image)?;
        let old = self.image_sizes.insert(key, image.len());
        self.counters.wrote(image.len(), old);
        Ok(())
    }

    fn read(&self, key: PartitionKey) -> io::Result<Option<Vec<u8>>> {
        let _s = trace::span("recovery.disk.read");
        let out = self.inner.read(key)?;
        self.counters.read(out.as_ref());
        Ok(out)
    }

    fn keys(&self) -> io::Result<Vec<PartitionKey>> {
        self.inner.keys()
    }

    fn write_meta(&mut self, name: &str, bytes: &[u8]) -> io::Result<()> {
        let _s = trace::span("recovery.disk.write");
        self.inner.write_meta(name, bytes)?;
        let old = self.meta_sizes.insert(name.to_string(), bytes.len());
        self.counters.wrote(bytes.len(), old);
        Ok(())
    }

    fn read_meta(&self, name: &str) -> io::Result<Option<Vec<u8>>> {
        let _s = trace::span("recovery.disk.read");
        let out = self.inner.read_meta(name)?;
        self.counters.read(out.as_ref());
        Ok(out)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counts_bytes_and_tracks_what_is_stored() {
        let (mut disk, counters) = CountingDisk::new();
        let k = PartitionKey::new(0, 1);
        disk.write(k, &[0; 100]).unwrap();
        disk.write(k, &[0; 40]).unwrap();
        disk.write_meta("catalog.a", &[0; 10]).unwrap();
        assert_eq!(disk.read(k).unwrap().map(|v| v.len()), Some(40));
        assert!(disk.read(PartitionKey::new(9, 9)).unwrap().is_none());
        let s = counters.snapshot();
        assert_eq!(
            s,
            DiskSnapshot {
                writes: 3,
                bytes_written: 150,
                reads: 1,
                bytes_read: 40,
                stored_bytes: 50,
            }
        );
    }
}
