//! Shared, byte-budgeted LRU cache of decoded segments.
//!
//! Every read path in the stack — `scan`, `scan_filtered`,
//! `dataset_of_backend`, the fleet's scatter-gather merge — used to call
//! `segment::read_jobs` and re-decode the segment file from disk on every
//! pass. Sealed segments are immutable, so the decode is pure: one
//! process-wide cache keyed on *content identity* serves every `Store`
//! handle and every fleet shard the same `Arc<Vec<JobLog>>`.
//!
//! Identity rule: an entry is stored under the segment *path* but is only
//! a hit when the requested [`SegmentMeta`]'s file length **and**
//! whole-file FNV-1a fingerprint both match the entry. Compaction reuses
//! the first group member's id (same `seg-<id>.seg` path, new bytes), and
//! replication resets rewrite shard directories in place — with the
//! fingerprint in the key, a stale entry is unservable by construction;
//! explicit [`SegmentCache::invalidate`] calls at those sites exist only
//! to keep the byte budget honest, not for correctness.
//!
//! Fill protocol: lock → probe → unlock; on a miss the segment file is
//! read and CRC-verified **outside** the lock (`segment::decode_jobs` is
//! milliseconds of disk + checksum work and must not serialize every
//! other reader); lock → insert → unlock. Two threads racing on the same
//! cold segment decode it twice and the second insert wins — wasted work,
//! never wrong data.

use std::collections::HashMap;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex, OnceLock};

use aiio_darshan::JobLog;
use serde::Serialize;

use crate::codec::fnv1a64;
use crate::error::Result;
use crate::segment::{self, SegmentMeta};

/// Environment knob sizing the process-wide default cache in bytes.
/// `0` disables caching entirely (the CI differential matrix runs the
/// whole suite both ways); unset means [`DEFAULT_CAPACITY_BYTES`].
pub const CACHE_BYTES_ENV: &str = "AIIO_CACHE_BYTES";

/// Default byte budget of the process-wide cache: 256 MiB.
pub const DEFAULT_CAPACITY_BYTES: u64 = 256 * 1024 * 1024;

/// Point-in-time counters of one cache, for `/metrics` and benches.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, Serialize)]
pub struct CacheStats {
    /// Probes served from memory.
    pub hits: u64,
    /// Probes that went to disk.
    pub misses: u64,
    /// Decoded segments admitted.
    pub insertions: u64,
    /// Entries displaced by the byte budget.
    pub evictions: u64,
    /// Entries dropped by explicit invalidation.
    pub invalidations: u64,
    /// Entries resident now.
    pub entries: u64,
    /// Charged bytes resident now (file bytes of cached segments).
    pub bytes: u64,
    /// Configured byte budget.
    pub capacity_bytes: u64,
}

#[derive(Debug)]
struct Entry {
    len: u64,
    fingerprint: u64,
    jobs: Arc<Vec<JobLog>>,
    last_used: u64,
}

#[derive(Debug, Default)]
struct Inner {
    map: HashMap<PathBuf, Entry>,
    bytes: u64,
    tick: u64,
}

/// A byte-budgeted LRU over decoded segments. Cheap to share: clone the
/// `Arc` into every `Store` handle and fleet shard that should pool.
#[derive(Debug)]
pub struct SegmentCache {
    capacity: u64,
    inner: Mutex<Inner>,
    hits: AtomicU64,
    misses: AtomicU64,
    insertions: AtomicU64,
    evictions: AtomicU64,
    invalidations: AtomicU64,
}

impl SegmentCache {
    /// A cache holding at most `capacity_bytes` of segment file bytes.
    pub fn new(capacity_bytes: u64) -> SegmentCache {
        SegmentCache {
            capacity: capacity_bytes,
            inner: Mutex::new(Inner::default()),
            hits: AtomicU64::new(0),
            misses: AtomicU64::new(0),
            insertions: AtomicU64::new(0),
            evictions: AtomicU64::new(0),
            invalidations: AtomicU64::new(0),
        }
    }

    /// The process-wide cache every store opens with by default, sized by
    /// [`CACHE_BYTES_ENV`]. `None` when the env var is `0`.
    pub fn shared() -> Option<Arc<SegmentCache>> {
        static SHARED: OnceLock<Option<Arc<SegmentCache>>> = OnceLock::new();
        SHARED
            .get_or_init(|| {
                let capacity = std::env::var(CACHE_BYTES_ENV)
                    .ok()
                    .and_then(|v| v.trim().parse::<u64>().ok())
                    .unwrap_or(DEFAULT_CAPACITY_BYTES);
                if capacity == 0 {
                    None
                } else {
                    Some(Arc::new(SegmentCache::new(capacity)))
                }
            })
            .clone()
    }

    /// Fetch the decoded rows of `meta`, from memory when the cached entry
    /// matches the meta's length + fingerprint identity, from disk (with
    /// full CRC verification) otherwise. The disk read happens outside the
    /// cache lock.
    pub fn read_through(&self, meta: &SegmentMeta) -> Result<Arc<Vec<JobLog>>> {
        {
            let mut inner = self.inner.lock().unwrap_or_else(|e| e.into_inner());
            if let Some(entry) = inner.map.get(&meta.path) {
                if entry.len == meta.bytes && entry.fingerprint == meta.fingerprint {
                    let jobs = Arc::clone(&entry.jobs);
                    inner.tick += 1;
                    let tick = inner.tick;
                    if let Some(entry) = inner.map.get_mut(&meta.path) {
                        entry.last_used = tick;
                    }
                    self.hits.fetch_add(1, Ordering::Relaxed);
                    return Ok(jobs);
                }
            }
        }
        self.misses.fetch_add(1, Ordering::Relaxed);

        // Fill outside the lock: one pass over the file yields both the
        // decoded rows and the fingerprint of the exact bytes decoded.
        let bytes = std::fs::read(&meta.path)?;
        let fingerprint = fnv1a64(&bytes);
        let jobs = Arc::new(segment::decode_jobs(&meta.path, &bytes)?);
        let len = bytes.len() as u64;
        drop(bytes);

        // If the file on disk no longer matches the meta we were asked
        // for, serve what disk holds (same answer the uncached path gives)
        // but do not admit it under a stale identity.
        if fingerprint != meta.fingerprint || len != meta.bytes {
            return Ok(jobs);
        }
        self.insert(meta, Arc::clone(&jobs));
        Ok(jobs)
    }

    fn insert(&self, meta: &SegmentMeta, jobs: Arc<Vec<JobLog>>) {
        if meta.bytes > self.capacity {
            return; // bigger than the whole budget: never admit
        }
        let mut inner = self.inner.lock().unwrap_or_else(|e| e.into_inner());
        if let Some(old) = inner.map.remove(&meta.path) {
            inner.bytes -= old.len;
        }
        while inner.bytes + meta.bytes > self.capacity {
            let victim = inner
                .map
                .iter()
                .min_by_key(|(_, e)| e.last_used)
                .map(|(p, _)| p.clone());
            match victim {
                Some(path) => {
                    if let Some(e) = inner.map.remove(&path) {
                        inner.bytes -= e.len;
                    }
                    self.evictions.fetch_add(1, Ordering::Relaxed);
                }
                None => break,
            }
        }
        inner.tick += 1;
        let last_used = inner.tick;
        inner.bytes += meta.bytes;
        inner.map.insert(
            meta.path.clone(),
            Entry {
                len: meta.bytes,
                fingerprint: meta.fingerprint,
                jobs,
                last_used,
            },
        );
        self.insertions.fetch_add(1, Ordering::Relaxed);
    }

    /// Drop the entry for one segment path, if resident.
    pub fn invalidate(&self, path: &Path) {
        let mut inner = self.inner.lock().unwrap_or_else(|e| e.into_inner());
        if let Some(e) = inner.map.remove(path) {
            inner.bytes -= e.len;
            self.invalidations.fetch_add(1, Ordering::Relaxed);
        }
    }

    /// Drop every entry under `dir` — the shard-directory-granular hammer
    /// replication resets and rebalance publishes use.
    pub fn invalidate_dir(&self, dir: &Path) {
        let mut inner = self.inner.lock().unwrap_or_else(|e| e.into_inner());
        let doomed: Vec<PathBuf> = inner
            .map
            .keys()
            .filter(|p| p.starts_with(dir))
            .cloned()
            .collect();
        for path in doomed {
            if let Some(e) = inner.map.remove(&path) {
                inner.bytes -= e.len;
                self.invalidations.fetch_add(1, Ordering::Relaxed);
            }
        }
    }

    /// Drop everything.
    pub fn clear(&self) {
        let mut inner = self.inner.lock().unwrap_or_else(|e| e.into_inner());
        let n = inner.map.len() as u64;
        inner.map.clear();
        inner.bytes = 0;
        self.invalidations.fetch_add(n, Ordering::Relaxed);
    }

    /// Current counters.
    pub fn stats(&self) -> CacheStats {
        let (entries, bytes) = {
            let inner = self.inner.lock().unwrap_or_else(|e| e.into_inner());
            (inner.map.len() as u64, inner.bytes)
        };
        CacheStats {
            hits: self.hits.load(Ordering::Relaxed),
            misses: self.misses.load(Ordering::Relaxed),
            insertions: self.insertions.load(Ordering::Relaxed),
            evictions: self.evictions.load(Ordering::Relaxed),
            invalidations: self.invalidations.load(Ordering::Relaxed),
            entries,
            bytes,
            capacity_bytes: self.capacity,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::segment::write_segment;
    use aiio_darshan::{CounterId, JobLog};
    use std::path::PathBuf;

    fn job(i: u64) -> JobLog {
        let mut j = JobLog::new(i, "ior", 2020);
        j.counters.set(CounterId::PosixSeqReads, i as f64);
        j
    }

    fn tmp(tag: &str) -> PathBuf {
        let d = std::env::temp_dir().join(format!("aiio_cache_{tag}_{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&d);
        std::fs::create_dir_all(&d).unwrap();
        d
    }

    #[test]
    fn hit_after_miss_returns_same_rows() {
        let dir = tmp("hit");
        let jobs: Vec<JobLog> = (0..8).map(job).collect();
        let meta = write_segment(&dir, 1, 0, &jobs).unwrap();
        let cache = SegmentCache::new(1 << 20);
        let a = cache.read_through(&meta).unwrap();
        let b = cache.read_through(&meta).unwrap();
        assert_eq!(*a, jobs);
        assert!(Arc::ptr_eq(&a, &b), "second read must be the cached Arc");
        let s = cache.stats();
        assert_eq!((s.hits, s.misses, s.insertions), (1, 1, 1));
        assert_eq!(s.entries, 1);
        assert_eq!(s.bytes, meta.bytes);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn changed_fingerprint_under_same_path_is_never_served() {
        let dir = tmp("fingerprint");
        let old_jobs: Vec<JobLog> = (0..8).map(job).collect();
        let meta = write_segment(&dir, 1, 0, &old_jobs).unwrap();
        let cache = SegmentCache::new(1 << 20);
        cache.read_through(&meta).unwrap();
        // Rewrite the same path with different rows (what compaction does
        // to the first group member) and reload its meta.
        let new_jobs: Vec<JobLog> = (100..108).map(job).collect();
        let meta2 = write_segment(&dir, 1, 0, &new_jobs).unwrap();
        assert_eq!(meta.path, meta2.path);
        assert_ne!(meta.fingerprint, meta2.fingerprint);
        let got = cache.read_through(&meta2).unwrap();
        assert_eq!(*got, new_jobs, "stale entry served for a rewritten path");
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn byte_budget_evicts_least_recently_used() {
        let dir = tmp("evict");
        let jobs: Vec<JobLog> = (0..8).map(job).collect();
        let m1 = write_segment(&dir, 1, 0, &jobs).unwrap();
        let m2 = write_segment(&dir, 2, 8, &jobs).unwrap();
        let m3 = write_segment(&dir, 3, 16, &jobs).unwrap();
        // Budget fits exactly two segments.
        let cache = SegmentCache::new(m1.bytes * 2);
        cache.read_through(&m1).unwrap();
        cache.read_through(&m2).unwrap();
        cache.read_through(&m1).unwrap(); // m2 is now the LRU
        cache.read_through(&m3).unwrap(); // evicts m2
        let s = cache.stats();
        assert_eq!(s.evictions, 1);
        assert_eq!(s.entries, 2);
        assert!(s.bytes <= m1.bytes * 2);
        cache.read_through(&m1).unwrap();
        assert_eq!(cache.stats().hits, 2, "m1 must have survived the evict");
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn oversized_segment_is_served_but_not_admitted() {
        let dir = tmp("oversized");
        let jobs: Vec<JobLog> = (0..8).map(job).collect();
        let meta = write_segment(&dir, 1, 0, &jobs).unwrap();
        let cache = SegmentCache::new(meta.bytes - 1);
        let got = cache.read_through(&meta).unwrap();
        assert_eq!(*got, jobs);
        let s = cache.stats();
        assert_eq!((s.entries, s.insertions), (0, 0));
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn invalidate_and_invalidate_dir_release_bytes() {
        let a = tmp("inv_a");
        let b = tmp("inv_b");
        let jobs: Vec<JobLog> = (0..4).map(job).collect();
        let ma = write_segment(&a, 1, 0, &jobs).unwrap();
        let mb1 = write_segment(&b, 1, 0, &jobs).unwrap();
        let mb2 = write_segment(&b, 2, 4, &jobs).unwrap();
        let cache = SegmentCache::new(1 << 20);
        for m in [&ma, &mb1, &mb2] {
            cache.read_through(m).unwrap();
        }
        cache.invalidate(&ma.path);
        assert_eq!(cache.stats().entries, 2);
        cache.invalidate_dir(&b);
        let s = cache.stats();
        assert_eq!(s.entries, 0);
        assert_eq!(s.bytes, 0);
        assert_eq!(s.invalidations, 3);
        let _ = std::fs::remove_dir_all(&a);
        let _ = std::fs::remove_dir_all(&b);
    }

    #[test]
    fn corrupt_fill_reports_error_and_caches_nothing() {
        let dir = tmp("corrupt");
        let jobs: Vec<JobLog> = (0..8).map(job).collect();
        let meta = write_segment(&dir, 1, 0, &jobs).unwrap();
        let mut bytes = std::fs::read(&meta.path).unwrap();
        let mid = bytes.len() / 2;
        bytes[mid] ^= 0x40;
        std::fs::write(&meta.path, &bytes).unwrap();
        let cache = SegmentCache::new(1 << 20);
        assert!(cache.read_through(&meta).is_err());
        assert_eq!(cache.stats().entries, 0);
        let _ = std::fs::remove_dir_all(&dir);
    }
}
