//! Deterministic parallel map: the workspace's only threading primitive.
//!
//! AIIO's pipeline is embarrassingly parallel at several granularities —
//! model families in the zoo, per-model SHAP attribution, jobs in a batch
//! diagnosis, jobs in a synthetic database — but every output in this
//! workspace is compared byte-for-byte in tests and across serve reloads,
//! so parallelism must never change a single bit of the result. This crate
//! guarantees that by construction:
//!
//! * **Stable chunking** — chunk boundaries are a pure function of input
//!   *length*, never of thread count or timing ([`chunk_bounds`], and
//!   [`batch_bounds`] for [`map_chunks`]).
//! * **Index-ordered reduction** — workers claim chunks by atomic counter
//!   (timing-dependent) but return `(chunk_index, results)` pairs that are
//!   sorted by index before concatenation, so the output order is the input
//!   order regardless of who computed what when.
//! * **Pure per-item work** — the closures passed in derive results only
//!   from their arguments (all RNG in this workspace is seeded per item).
//!
//! Under these rules `map(items, f)` is extensionally equal to
//! `items.iter().map(f).collect()` at every thread count, including 1 —
//! which is exactly what `tests/parallel_equivalence.rs` pins down.
//!
//! Thread-count resolution, in priority order: a programmatic
//! [`set_threads`] call, the `AIIO_THREADS` environment variable, then
//! [`std::thread::available_parallelism`]. Nested calls (a parallel batch
//! diagnosis whose per-job work itself calls [`map`]) run the inner map
//! sequentially on the worker thread, so a single configured thread count
//! bounds total concurrency instead of compounding multiplicatively.

use std::cell::Cell;
use std::sync::atomic::{AtomicUsize, Ordering};

/// Global thread-count override; 0 means "unset" (fall through to the
/// environment, then to the machine's available parallelism).
static THREADS: AtomicUsize = AtomicUsize::new(0);

thread_local! {
    /// True on threads spawned by [`map`] itself; nested maps on such a
    /// thread run sequentially so concurrency never compounds.
    static IN_WORKER: Cell<bool> = const { Cell::new(false) };
}

/// Fix the worker count for all subsequent maps (process-wide).
/// `0` clears the override, restoring `AIIO_THREADS`/auto detection.
pub fn set_threads(n: usize) {
    THREADS.store(n, Ordering::SeqCst);
}

/// The worker count the next top-level [`map`] will use.
pub fn threads() -> usize {
    let n = THREADS.load(Ordering::SeqCst);
    if n > 0 {
        return n;
    }
    if let Ok(v) = std::env::var("AIIO_THREADS") {
        if let Ok(n) = v.trim().parse::<usize>() {
            if n > 0 {
                return n;
            }
        }
    }
    std::thread::available_parallelism().map_or(1, |n| n.get())
}

/// Run `f` with the worker count pinned to `n`, restoring the previous
/// setting afterwards (also on panic). The setting is process-global —
/// concurrent callers race on the *count*, but never on results: that
/// results are identical at every thread count is this crate's invariant.
pub fn with_threads<R>(n: usize, f: impl FnOnce() -> R) -> R {
    struct Restore(usize);
    impl Drop for Restore {
        fn drop(&mut self) {
            THREADS.store(self.0, Ordering::SeqCst);
        }
    }
    let _restore = Restore(THREADS.swap(n, Ordering::SeqCst));
    f()
}

/// Deterministic parallel map: equivalent to
/// `items.iter().map(f).collect()` at any thread count.
pub fn map<T, R, F>(items: &[T], f: F) -> Vec<R>
where
    T: Sync,
    R: Send,
    F: Fn(&T) -> R + Sync,
{
    map_indexed(items, |_, item| f(item))
}

/// [`map`] with the item's input index passed to the closure (for work
/// that keys a cache or a label by position).
pub fn map_indexed<T, R, F>(items: &[T], f: F) -> Vec<R>
where
    T: Sync,
    R: Send,
    F: Fn(usize, &T) -> R + Sync,
{
    let bounds = chunk_bounds(items.len());
    run_chunks(&bounds, |&(start, end)| {
        (start..end).map(|i| f(i, &items[i])).collect()
    })
}

/// Deterministic parallel map over *slices*: `f` receives each chunk of
/// the [`batch_bounds`] partition and returns one result per element.
/// Because the partition depends only on `items.len()`, a chunk-at-a-time
/// computation (e.g. batched model prediction) sees the same slices — and
/// therefore produces the same bytes — at every thread count, including 1.
pub fn map_chunks<T, R, F>(items: &[T], f: F) -> Vec<R>
where
    T: Sync,
    R: Send,
    F: Fn(&[T]) -> Vec<R> + Sync,
{
    let bounds = batch_bounds(items.len());
    run_chunks(&bounds, |&(start, end)| f(&items[start..end]))
}

/// Upper bound on chunks per map. More chunks than threads keeps workers
/// busy when per-item cost is skewed; a fixed cap keeps per-chunk overhead
/// negligible. The value only affects scheduling, never results.
const MAX_CHUNKS: usize = 64;

/// Fewest items in a [`map_chunks`] chunk (unless the whole input is
/// shorter). Batched prediction runs a register-tiled matrix product per
/// chunk, which needs rows to fill its tiles and to repay packing the
/// weights; chunks of a dozen rows leave it slower than a plain loop.
const MIN_BATCH: usize = 128;

/// The stable partition of `len` items: contiguous `(start, end)` ranges
/// covering `0..len` in order. A pure function of `len` — this is the
/// "stable chunking" half of the determinism contract.
pub fn chunk_bounds(len: usize) -> Vec<(usize, usize)> {
    partition(len, len.min(MAX_CHUNKS))
}

/// The stable partition [`map_chunks`] hands out: like [`chunk_bounds`],
/// but every chunk has at least `MIN_BATCH` (128) items, so a 931-row
/// batch splits into 7 chunks instead of 64. Also a pure function of `len`.
pub fn batch_bounds(len: usize) -> Vec<(usize, usize)> {
    partition(len, (len / MIN_BATCH).clamp(1, MAX_CHUNKS))
}

/// `len` items in `n_chunks` contiguous ranges whose sizes differ by at
/// most one, the longer ones first.
fn partition(len: usize, n_chunks: usize) -> Vec<(usize, usize)> {
    if len == 0 {
        return Vec::new();
    }
    let base = len / n_chunks;
    let extra = len % n_chunks;
    let mut bounds = Vec::with_capacity(n_chunks);
    let mut start = 0;
    for i in 0..n_chunks {
        let size = base + usize::from(i < extra);
        bounds.push((start, start + size));
        start += size;
    }
    bounds
}

/// Apply `f` to every chunk and concatenate the per-chunk results in
/// chunk-index order. Workers race only for *which* chunk to compute
/// next; the index-ordered reduction erases that race from the output.
fn run_chunks<C, R, F>(chunks: &[C], f: F) -> Vec<R>
where
    C: Sync,
    R: Send,
    F: Fn(&C) -> Vec<R> + Sync,
{
    let workers = effective_workers(chunks.len());
    if workers <= 1 {
        // The sequential path walks the identical chunk structure, so a
        // chunk-sensitive `f` (map_chunks) sees the same slices either way.
        return chunks.iter().flat_map(&f).collect();
    }
    let next = AtomicUsize::new(0);
    let mut parts: Vec<(usize, Vec<R>)> = std::thread::scope(|scope| {
        let handles: Vec<_> = (0..workers)
            .map(|_| {
                scope.spawn(|| {
                    IN_WORKER.with(|w| w.set(true));
                    let mut local = Vec::new();
                    loop {
                        let idx = next.fetch_add(1, Ordering::Relaxed);
                        if idx >= chunks.len() {
                            break;
                        }
                        local.push((idx, f(&chunks[idx])));
                    }
                    local
                })
            })
            .collect();
        let mut parts = Vec::with_capacity(chunks.len());
        let mut panicked = None;
        for h in handles {
            match h.join() {
                Ok(local) => parts.extend(local),
                // Keep joining the rest so no worker outlives the scope
                // in a panicking state, then re-raise the first payload.
                Err(payload) => panicked = Some(payload),
            }
        }
        if let Some(payload) = panicked {
            std::panic::resume_unwind(payload);
        }
        parts
    });
    parts.sort_by_key(|&(idx, _)| idx);
    parts.into_iter().flat_map(|(_, v)| v).collect()
}

/// Workers for a top-level map: the configured thread count, capped by the
/// number of chunks. Nested maps (already on a worker thread) get 1.
fn effective_workers(n_chunks: usize) -> usize {
    if n_chunks <= 1 || IN_WORKER.with(Cell::get) {
        return 1;
    }
    threads().min(n_chunks)
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::AtomicU64;
    use std::sync::Mutex;

    /// Serializes tests that touch the process-global thread override.
    fn lock() -> std::sync::MutexGuard<'static, ()> {
        static GUARD: Mutex<()> = Mutex::new(());
        GUARD.lock().unwrap_or_else(|p| p.into_inner())
    }

    #[test]
    fn map_matches_sequential_at_every_thread_count() {
        let _g = lock();
        let items: Vec<u64> = (0..1000).collect();
        let expected: Vec<u64> = items.iter().map(|&x| x.wrapping_mul(x) ^ 0xA5).collect();
        for t in [1, 2, 3, 8, 64] {
            let got = with_threads(t, || map(&items, |&x| x.wrapping_mul(x) ^ 0xA5));
            assert_eq!(got, expected, "thread count {t} changed the result");
        }
    }

    #[test]
    fn map_indexed_sees_input_indices_in_order() {
        let _g = lock();
        let items = vec!["a"; 257];
        let got = with_threads(8, || map_indexed(&items, |i, _| i));
        assert_eq!(got, (0..257).collect::<Vec<_>>());
    }

    #[test]
    fn map_chunks_partition_is_thread_count_invariant() {
        let _g = lock();
        let items: Vec<f64> = (0..321).map(|i| i as f64).collect();
        // f is chunk-shape-sensitive: it stamps each element with its
        // chunk's length. Identical output at 1 vs 8 threads proves the
        // partition itself (not just the order) is stable.
        let stamp = |chunk: &[f64]| -> Vec<(usize, f64)> {
            chunk.iter().map(|&v| (chunk.len(), v)).collect()
        };
        let seq = with_threads(1, || map_chunks(&items, stamp));
        let par = with_threads(8, || map_chunks(&items, stamp));
        assert_eq!(seq, par);
        assert_eq!(par.len(), items.len());
        assert_eq!(par[0].1, 0.0);
        assert_eq!(par[320].1, 320.0);
        // The slices are exactly the `batch_bounds` partition.
        let sizes: Vec<usize> = batch_bounds(items.len())
            .into_iter()
            .flat_map(|(s, e)| std::iter::repeat_n(e - s, e - s))
            .collect();
        assert_eq!(par.iter().map(|&(n, _)| n).collect::<Vec<_>>(), sizes);
    }

    #[test]
    fn batch_bounds_cover_input_in_chunks_of_at_least_min_batch() {
        for len in [0, 1, 127, 128, 255, 256, 931, 8191, 8192, 100_000] {
            let bounds = batch_bounds(len);
            let mut covered = 0;
            for &(s, e) in &bounds {
                assert_eq!(s, covered, "gap at len {len}");
                assert!(e - s >= MIN_BATCH.min(len), "short chunk at len {len}");
                covered = e;
            }
            assert_eq!(covered, len);
            assert!(bounds.len() <= MAX_CHUNKS);
        }
        assert_eq!(batch_bounds(931).len(), 7);
        assert_eq!(batch_bounds(127), vec![(0, 127)]);
        assert_eq!(batch_bounds(100_000).len(), MAX_CHUNKS);
    }

    #[test]
    fn chunk_bounds_cover_input_exactly_once() {
        for len in [0, 1, 2, 63, 64, 65, 1000, 4096] {
            let bounds = chunk_bounds(len);
            let mut covered = 0;
            for (i, &(s, e)) in bounds.iter().enumerate() {
                assert_eq!(s, covered, "gap before chunk {i} at len {len}");
                assert!(e > s, "empty chunk {i} at len {len}");
                covered = e;
            }
            assert_eq!(covered, len);
            assert!(bounds.len() <= MAX_CHUNKS);
        }
    }

    #[test]
    fn nested_maps_do_not_multiply_workers() {
        let _g = lock();
        let peak = AtomicU64::new(0);
        let live = AtomicU64::new(0);
        let outer: Vec<u64> = (0..64).collect();
        with_threads(4, || {
            map(&outer, |_| {
                let now = live.fetch_add(1, Ordering::SeqCst) + 1;
                peak.fetch_max(now, Ordering::SeqCst);
                let inner: Vec<u64> = (0..32).collect();
                let s: u64 = map(&inner, |&x| x).iter().sum();
                live.fetch_sub(1, Ordering::SeqCst);
                s
            })
        });
        // 4 outer workers, inner maps sequential on those same threads.
        assert!(peak.load(Ordering::SeqCst) <= 4);
    }

    #[test]
    fn worker_panic_propagates() {
        let _g = lock();
        let items: Vec<u32> = (0..100).collect();
        let result = std::panic::catch_unwind(|| {
            with_threads(4, || {
                map(&items, |&x| {
                    assert!(x != 57, "57 is right out");
                    x
                })
            })
        });
        assert!(result.is_err());
        // The override was restored despite the panic.
        assert_eq!(THREADS.load(Ordering::SeqCst), 0);
    }

    #[test]
    fn empty_and_singleton_inputs() {
        let _g = lock();
        let empty: Vec<i32> = Vec::new();
        assert!(with_threads(8, || map(&empty, |&x| x)).is_empty());
        assert_eq!(with_threads(8, || map(&[41], |&x| x + 1)), vec![42]);
    }

    #[test]
    fn set_threads_overrides_and_clears() {
        let _g = lock();
        set_threads(3);
        assert_eq!(threads(), 3);
        set_threads(0);
        assert!(threads() >= 1);
    }
}
