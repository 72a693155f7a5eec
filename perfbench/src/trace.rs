//! In-memory span recorder for the traced replays.
//!
//! Spans are recorded around calls into each layer's public functions from
//! the benchmark's own code; nothing inside the program is instrumented.
//! Every thread keeps its own span list (no lock on the hot path); a span
//! records its name, start, end, parent and the id of the operation it
//! belongs to, and nested spans inherit the operation id of their root.
//! Spans stay in memory until [`take`] hands them to the caller, which
//! writes them out when the run ends.

use std::cell::RefCell;
use std::collections::BTreeMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::OnceLock;
use std::time::Instant;

/// One recorded interval.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Span {
    pub id: u64,
    pub parent: Option<u64>,
    /// Operation the span belongs to (shared by every span of one op).
    pub op: u64,
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
    /// Work items the call handled (rows predicted, rows appended, ...).
    pub items: u64,
}

impl Span {
    pub fn duration_ns(&self) -> u64 {
        self.end_ns.saturating_sub(self.start_ns)
    }

    /// The layer a span belongs to: its name up to the first dot.
    pub fn layer(&self) -> &'static str {
        self.name.split('.').next().unwrap_or(self.name)
    }
}

static NEXT_ID: AtomicU64 = AtomicU64::new(1);

fn epoch() -> Instant {
    static EPOCH: OnceLock<Instant> = OnceLock::new();
    *EPOCH.get_or_init(Instant::now)
}

/// Nanoseconds since the process-wide trace epoch.
pub fn now_ns() -> u64 {
    u64::try_from(epoch().elapsed().as_nanos()).unwrap_or(u64::MAX)
}

#[derive(Default)]
struct Recorder {
    on: bool,
    spans: Vec<Span>,
    /// Open spans: (id, op).
    stack: Vec<(u64, u64)>,
}

thread_local! {
    static REC: RefCell<Recorder> = RefCell::new(Recorder::default());
}

/// Turn recording on or off for the calling thread.
pub fn enable(on: bool) {
    // Fix the epoch before the first span so all threads share it.
    let _ = epoch();
    REC.with(|r| r.borrow_mut().on = on);
}

/// Drain the calling thread's recorded spans.
pub fn take() -> Vec<Span> {
    REC.with(|r| std::mem::take(&mut r.borrow_mut().spans))
}

/// Run `f` as the root span of operation `op`.
pub fn root<R>(name: &'static str, op: u64, f: impl FnOnce() -> R) -> R {
    run(name, Some(op), 0, f)
}

/// Run `f` as a span nested in the current one.
pub fn span<R>(name: &'static str, f: impl FnOnce() -> R) -> R {
    run(name, None, 0, f)
}

/// [`span`] that also records how many work items the call handled.
pub fn span_items<R>(name: &'static str, items: u64, f: impl FnOnce() -> R) -> R {
    run(name, None, items, f)
}

fn run<R>(name: &'static str, op: Option<u64>, items: u64, f: impl FnOnce() -> R) -> R {
    let opened = REC.with(|r| {
        let mut r = r.borrow_mut();
        if !r.on {
            return None;
        }
        let parent = r.stack.last().copied();
        let op = op.or(parent.map(|(_, op)| op)).unwrap_or(0);
        let id = NEXT_ID.fetch_add(1, Ordering::Relaxed);
        r.stack.push((id, op));
        Some((id, parent.map(|(p, _)| p), op, now_ns()))
    });
    let out = f();
    if let Some((id, parent, op, start_ns)) = opened {
        let end_ns = now_ns();
        REC.with(|r| {
            let mut r = r.borrow_mut();
            r.stack.pop();
            r.spans.push(Span {
                id,
                parent,
                op,
                name,
                start_ns,
                end_ns,
                items,
            });
        });
    }
    out
}

/// The innermost open span on this thread, as `(id, op)`.
pub fn current() -> Option<(u64, u64)> {
    REC.with(|r| {
        let r = r.borrow();
        if r.on {
            r.stack.last().copied()
        } else {
            None
        }
    })
}

/// A span timed elsewhere (e.g. on a worker thread the caller does not
/// own), attached under `parent`.
pub fn external(name: &'static str, parent: (u64, u64), start_ns: u64, end_ns: u64) -> Span {
    Span {
        id: NEXT_ID.fetch_add(1, Ordering::Relaxed),
        parent: Some(parent.0),
        op: parent.1,
        name,
        start_ns,
        end_ns,
        items: 0,
    }
}

/// Record a span built with [`external`] on the calling thread.
pub fn push(span: Span) {
    REC.with(|r| {
        let mut r = r.borrow_mut();
        if r.on {
            r.spans.push(span);
        }
    });
}

/// Total length of the union of `intervals`, each clipped to `[lo, hi]`:
/// overlapping intervals are counted once.
pub fn union_len(intervals: &mut [(u64, u64)], lo: u64, hi: u64) -> u64 {
    intervals.sort_unstable();
    let mut total = 0;
    let mut cur: Option<(u64, u64)> = None;
    for &(s, e) in intervals.iter() {
        let (s, e) = (s.max(lo), e.min(hi));
        if e <= s {
            continue;
        }
        cur = match cur {
            Some((cs, ce)) if s <= ce => Some((cs, ce.max(e))),
            Some((cs, ce)) => {
                total += ce - cs;
                Some((s, e))
            }
            None => Some((s, e)),
        };
    }
    if let Some((cs, ce)) = cur {
        total += ce - cs;
    }
    total
}

/// Self time of every span: its duration minus the union of its
/// children's intervals.
pub fn self_times(spans: &[Span]) -> BTreeMap<u64, u64> {
    let mut children: BTreeMap<u64, Vec<(u64, u64)>> = BTreeMap::new();
    for s in spans {
        if let Some(p) = s.parent {
            children.entry(p).or_default().push((s.start_ns, s.end_ns));
        }
    }
    spans
        .iter()
        .map(|s| {
            let covered = children
                .get_mut(&s.id)
                .map_or(0, |c| union_len(c, s.start_ns, s.end_ns));
            (s.id, s.duration_ns().saturating_sub(covered))
        })
        .collect()
}

/// Per-name totals over a span set.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct NameStats {
    pub calls: u64,
    pub items: u64,
    pub total_ns: u64,
    pub self_ns: u64,
}

/// Aggregate spans by name.
pub fn by_name(spans: &[Span]) -> BTreeMap<&'static str, NameStats> {
    let selfs = self_times(spans);
    let mut out: BTreeMap<&'static str, NameStats> = BTreeMap::new();
    for s in spans {
        let e = out.entry(s.name).or_default();
        e.calls += 1;
        e.items += s.items;
        e.total_ns += s.duration_ns();
        e.self_ns += selfs.get(&s.id).copied().unwrap_or(0);
    }
    out
}

/// Self time summed over every span in the subtree under `root_id`
/// (the root included). For a tree whose children never overlap this
/// equals the root's duration exactly.
pub fn subtree_self_ns(spans: &[Span], selfs: &BTreeMap<u64, u64>, root_id: u64) -> u64 {
    let mut kids: BTreeMap<u64, Vec<u64>> = BTreeMap::new();
    for s in spans {
        if let Some(p) = s.parent {
            kids.entry(p).or_default().push(s.id);
        }
    }
    let mut total = 0;
    let mut todo = vec![root_id];
    while let Some(id) = todo.pop() {
        total += selfs.get(&id).copied().unwrap_or(0);
        if let Some(k) = kids.get(&id) {
            todo.extend(k);
        }
    }
    total
}

/// One JSON line per span, for the span file.
pub fn to_jsonl(spans: &[Span]) -> String {
    let mut out = String::with_capacity(spans.len() * 96);
    for s in spans {
        let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
        out.push_str(&format!(
            "{{\"id\":{},\"parent\":{parent},\"op\":{},\"name\":\"{}\",\"start_ns\":{},\"end_ns\":{},\"items\":{}}}\n",
            s.id, s.op, s.name, s.start_ns, s.end_ns, s.items
        ));
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sp(id: u64, parent: Option<u64>, name: &'static str, start_ns: u64, end_ns: u64) -> Span {
        Span {
            id,
            parent,
            op: 7,
            name,
            start_ns,
            end_ns,
            items: 0,
        }
    }

    #[test]
    fn overlapping_children_are_counted_once() {
        // Parent 0..100; children 10..40 and 30..60 overlap on 30..40,
        // so they cover 50 ns, not 60.
        let spans = vec![
            sp(1, None, "par.map", 0, 100),
            sp(2, Some(1), "gbdt.xgboost.fit", 10, 40),
            sp(3, Some(1), "nn.mlp.fit", 30, 60),
        ];
        let selfs = self_times(&spans);
        assert_eq!(selfs[&1], 50);
        assert_eq!(selfs[&2], 30);
        assert_eq!(selfs[&3], 30);
    }

    #[test]
    fn disjoint_and_nested_children() {
        let spans = vec![
            sp(1, None, "serve.diagnose", 0, 1000),
            sp(2, Some(1), "serve.decode", 0, 100),
            sp(3, Some(1), "aiio.diagnose", 100, 900),
            sp(4, Some(3), "explain.kernel_shap", 200, 800),
            sp(5, Some(4), "nn.mlp.predict", 250, 700),
            sp(6, Some(1), "serve.encode", 900, 1000),
        ];
        let selfs = self_times(&spans);
        assert_eq!(selfs[&1], 0);
        assert_eq!(selfs[&3], 200);
        assert_eq!(selfs[&4], 150);
        assert_eq!(selfs[&5], 450);
        // Self times of a non-overlapping tree sum to the root duration.
        assert_eq!(subtree_self_ns(&spans, &selfs, 1), 1000);
        assert_eq!(subtree_self_ns(&spans, &selfs, 3), 800);
    }

    #[test]
    fn children_are_clipped_to_their_parent() {
        let spans = vec![
            sp(1, None, "aiio.train", 100, 200),
            sp(2, Some(1), "par.map", 50, 150),
        ];
        assert_eq!(self_times(&spans)[&1], 50);
    }

    #[test]
    fn union_len_merges_touching_and_contained_intervals() {
        let mut v = vec![(0, 10), (10, 20), (2, 5), (30, 40)];
        assert_eq!(union_len(&mut v, 0, 100), 30);
        let mut v = vec![(0, 10), (5, 50)];
        assert_eq!(union_len(&mut v, 20, 30), 10);
        assert_eq!(union_len(&mut [], 0, 10), 0);
    }

    #[test]
    fn spans_of_one_op_share_its_id_and_nest() {
        enable(true);
        let _ = take();
        root("serve.ingest", 41, || {
            span("serve.decode", || ());
            span("store.append_batch", || span_items("store.sync", 3, || ()));
        });
        root("serve.query", 42, || span("store.read_view", || ()));
        let spans = take();
        enable(false);
        assert_eq!(spans.len(), 6);
        let op_of = |name: &str| spans.iter().find(|s| s.name == name).map(|s| s.op);
        assert_eq!(op_of("serve.decode"), Some(41));
        assert_eq!(op_of("store.sync"), Some(41));
        assert_eq!(op_of("store.read_view"), Some(42));
        let append = spans
            .iter()
            .find(|s| s.name == "store.append_batch")
            .unwrap();
        let sync = spans.iter().find(|s| s.name == "store.sync").unwrap();
        assert_eq!(sync.parent, Some(append.id));
        assert_eq!(sync.items, 3);
        assert!(append.start_ns <= sync.start_ns && sync.end_ns <= append.end_ns);
        let root_span = spans.iter().find(|s| s.name == "serve.ingest").unwrap();
        assert_eq!(root_span.parent, None);
    }

    #[test]
    fn disabled_recorder_records_nothing() {
        enable(false);
        let v = root("serve.diagnose", 1, || span("aiio.diagnose", || 5));
        assert_eq!(v, 5);
        assert!(take().is_empty());
        assert_eq!(current(), None);
    }
}
