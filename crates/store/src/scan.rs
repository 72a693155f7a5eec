//! The read path: [`StoreReadView`] and the one ordered row walker behind
//! every scan of a plain store and of a sharded fleet.
//!
//! A view holds *parts* — per store, its sealed segments and then its WAL
//! tail — and reads them in runs of `(part, count)`. A plain store is one
//! part read as the single run `(0, len)`. A fleet adds its ordinal
//! journal (one shard byte per row, in arrival order), which the walker
//! groups into runs as it goes. Within a run, rows come from the part's
//! current window in a tight loop, so the plain path pays no per-row
//! journal step.

use std::borrow::Cow;
use std::path::PathBuf;
use std::sync::Arc;

use aiio_darshan::JobLog;

use crate::cache::SegmentCache;
use crate::error::{Result, StoreError};
use crate::schema::counter_column;
use crate::segment::{self, SegmentMeta};
use crate::store::{CounterRange, ScanSummary, Store};

/// One store's readable state: sealed segment metadata, the WAL tail
/// after it, and the cache segments decode through.
#[derive(Debug, Clone)]
struct Part<'a> {
    segments: Cow<'a, [SegmentMeta]>,
    tail: Cow<'a, [JobLog]>,
    cache: Option<Arc<SegmentCache>>,
}

impl Part<'_> {
    fn len(&self) -> usize {
        self.segments.iter().map(|s| s.rows).sum::<usize>() + self.tail.len()
    }
}

/// A scannable read of a plain store or a fleet: its stores' parts plus,
/// for a fleet, the ordinal journal. Borrowed, it is a live scan;
/// [`StoreReadView::into_owned`] makes the snapshot every `read_view`
/// returns: cheap (metas, tail and journal copies, no segment decode),
/// and scannable without the store, so the server takes one under its
/// ingest lock and scans after dropping it. Sealed segments are
/// immutable, so a snapshot stays correct while the store ingests, seals
/// or compacts (a compacted-away segment is still served from its cached
/// entry or file until the view is dropped).
#[derive(Debug, Clone)]
pub struct StoreReadView<'a> {
    parts: Vec<Part<'a>>,
    journal: Option<Cow<'a, [u8]>>,
}

impl<'a> StoreReadView<'a> {
    /// A live view over `stores`. With a `journal`, rows are read in its
    /// order: byte `i` names the store that holds row `i`, and each
    /// store's rows are taken in their own order. Without one, the stores
    /// are read one after another.
    pub fn new(
        stores: impl IntoIterator<Item = &'a Store>,
        journal: Option<&'a [u8]>,
    ) -> StoreReadView<'a> {
        let parts = stores
            .into_iter()
            .map(|store| Part {
                segments: Cow::Borrowed(store.segments()),
                tail: Cow::Borrowed(store.tail_rows()),
                cache: store.cache().cloned(),
            })
            .collect();
        StoreReadView {
            parts,
            journal: journal.map(Cow::Borrowed),
        }
    }

    /// Copy everything borrowed, so the view outlives its stores.
    pub fn into_owned(self) -> StoreReadView<'static> {
        let parts = self.parts.into_iter().map(|part| Part {
            segments: Cow::Owned(part.segments.into_owned()),
            tail: Cow::Owned(part.tail.into_owned()),
            cache: part.cache,
        });
        StoreReadView {
            parts: parts.collect(),
            journal: self.journal.map(|j| Cow::Owned(j.into_owned())),
        }
    }

    /// Stream every row in insertion order. Peak memory is one decoded
    /// segment per store.
    pub fn scan(&self, sink: &mut dyn FnMut(&JobLog)) -> Result<()> {
        self.walk_rows(None, sink).map(drop)
    }

    /// Stream rows matching `range` in insertion order, skipping segments
    /// whose zone map proves they hold no match (their rows are consumed
    /// without being decoded). The WAL tail has no zone map and is always
    /// filtered row by row.
    pub fn scan_filtered(
        &self,
        range: &CounterRange,
        sink: &mut dyn FnMut(&JobLog),
    ) -> Result<ScanSummary> {
        self.walk_rows(Some(range), sink)
    }

    /// The row walker. Output order is the journal's (or the parts'), so
    /// part count, thread count and cache state cannot change it.
    fn walk_rows(
        &self,
        filter: Option<&CounterRange>,
        sink: &mut dyn FnMut(&JobLog),
    ) -> Result<ScanSummary> {
        let mut summary = ScanSummary::default();
        let mut cursors: Vec<Cursor<'_>> = self
            .parts
            .iter()
            .map(|part| Cursor {
                part,
                next: 0,
                window: Window::Skipped(0),
                pos: 0,
            })
            .collect();
        if filter.is_none() {
            // Prefetch every part's first segment in one parallel wave.
            let first = aiio_par::map(&self.parts, |part| {
                part.segments
                    .first()
                    .map(|meta| read_segment(part.cache.as_deref(), meta))
            });
            for (cursor, rows) in cursors.iter_mut().zip(first) {
                if let Some(rows) = rows {
                    cursor.window = Window::Rows(rows?);
                    cursor.next = 1;
                    summary.segments_scanned += 1;
                }
            }
        }
        let zone = filter.map(|r| (r, counter_column(r.counter)));
        let mut take_run = |part: usize, count: usize| -> Result<()> {
            let cursor = &mut cursors[part];
            let mut left = count;
            while left > 0 {
                let (len, rows) = cursor.window();
                let end = len.min(cursor.pos + left);
                if end == cursor.pos {
                    cursor.refill(zone, &mut summary)?;
                    continue;
                }
                for job in rows.get(cursor.pos..end).unwrap_or_default() {
                    summary.rows_scanned += 1;
                    if filter.is_none_or(|r| r.matches(job)) {
                        summary.rows_matched += 1;
                        sink(job);
                    }
                }
                left -= end - cursor.pos;
                cursor.pos = end;
            }
            Ok(())
        };
        match self.journal.as_deref() {
            Some(journal) => journal
                .chunk_by(|a, b| a == b)
                .try_for_each(|same| take_run(usize::from(same[0]), same.len()))?,
            None => self
                .parts
                .iter()
                .enumerate()
                .try_for_each(|(i, part)| take_run(i, part.len()))?,
        }
        Ok(summary)
    }
}

/// Decode one segment, through `cache` when present, raw otherwise.
/// Either way the result is the fully CRC-verified decode of the file.
fn read_segment(cache: Option<&SegmentCache>, meta: &SegmentMeta) -> Result<Arc<Vec<JobLog>>> {
    match cache {
        Some(cache) => cache.read_through(meta),
        None => segment::read_jobs(&meta.path).map(Arc::new),
    }
}

/// The rows a cursor is reading from.
enum Window {
    /// A decoded segment (shared with the cache when one is attached).
    Rows(Arc<Vec<JobLog>>),
    /// The part's WAL tail.
    Tail,
    /// A zone-pruned segment: its rows are consumed blind, never decoded.
    /// `Skipped(0)` is the empty window a cursor starts with.
    Skipped(usize),
}

/// One part's read position. `next` names the part's next window:
/// segment `next`, or the tail once it reaches the segment count.
struct Cursor<'v> {
    part: &'v Part<'v>,
    next: usize,
    window: Window,
    pos: usize,
}

impl Cursor<'_> {
    /// The current window's row count, and its rows (none when skipped).
    fn window(&self) -> (usize, &[JobLog]) {
        match &self.window {
            Window::Rows(rows) => (rows.len(), rows),
            Window::Tail => (self.part.tail.len(), &self.part.tail),
            Window::Skipped(n) => (*n, &[]),
        }
    }

    /// Move to the part's next window: the next segment (decoded, or
    /// skipped when the filter's zone map rules it out), then the tail.
    fn refill(
        &mut self,
        filter: Option<(&CounterRange, usize)>,
        summary: &mut ScanSummary,
    ) -> Result<()> {
        let segments = &self.part.segments;
        let pruned = |meta: &SegmentMeta| {
            filter
                .is_some_and(|(range, col)| meta.zones.get(col).is_some_and(|z| !range.overlaps(z)))
        };
        self.window = match segments.get(self.next) {
            Some(meta) if pruned(meta) => {
                summary.segments_skipped += 1;
                Window::Skipped(meta.rows)
            }
            Some(meta) => {
                summary.segments_scanned += 1;
                Window::Rows(read_segment(self.part.cache.as_deref(), meta)?)
            }
            None if self.next == segments.len() => Window::Tail,
            // A healed journal never names more rows than a part holds,
            // so running dry here means the store changed under the view.
            None => {
                return Err(StoreError::Corrupt {
                    path: segments
                        .first()
                        .map_or_else(PathBuf::new, |m| m.path.clone()),
                    offset: 0,
                    detail: "journal references rows past the shard's end".to_string(),
                })
            }
        };
        self.next += 1;
        self.pos = 0;
        Ok(())
    }
}
