//! Property suite for the filtered read path: over seeded random stores
//! and counter ranges, `scan_filtered` must return exactly the rows a
//! full `scan` plus an in-memory filter would — on a plain store and on
//! 1- and 3-shard fleets, live and through every `read_view` — and the
//! zone map may only skip segments that provably contain no match.
//! Failures reproduce from the seed in the assertion message.

use std::path::PathBuf;

use aiio_darshan::{CounterId, JobLog};
use aiio_shard::{AnyStore, ShardedStore};
use aiio_store::{CounterRange, RangeError, ScanSummary, Store, StoreConfig};
use rand::Rng;
use rand_chacha::ChaCha8Rng;

fn tmpdir(tag: &str) -> PathBuf {
    aiio_testkit::tmpdir("aiio_query_prop", tag).unwrap()
}

/// Counters the random ranges draw from — a spread of magnitudes so zone
/// pruning sees both tight and wide per-segment spans.
const COUNTERS: [CounterId; 4] = [
    CounterId::PosixReads,
    CounterId::PosixWrites,
    CounterId::PosixSeqReads,
    CounterId::Nprocs,
];

fn job(i: u64, rng: &mut ChaCha8Rng) -> JobLog {
    let mut j = JobLog::new(i, format!("app-{}", i % 5), 2018 + (i % 4) as u16);
    j.counters
        .set(CounterId::PosixReads, rng.gen_range(0.0f64..1e6).round());
    j.counters
        .set(CounterId::PosixWrites, rng.gen_range(0.0f64..1e6).round());
    j.counters
        .set(CounterId::PosixSeqReads, rng.gen_range(0.0f64..1e4));
    j.counters.set(
        CounterId::Nprocs,
        [8.0, 64.0, 512.0][rng.gen_range(0usize..3)],
    );
    j.time.total_read_time = rng.gen_range(0.0f64..300.0);
    j
}

fn jobs(n: u64, seed: u64) -> Vec<JobLog> {
    let mut rng = aiio_testkit::rng(seed);
    (0..n).map(|i| job(i, &mut rng)).collect()
}

/// A random inclusive range over `counter`, sometimes half-open: bounds
/// are drawn from the actual value population so a good fraction of
/// ranges are selective rather than match-all or match-none.
fn random_range(counter: CounterId, rows: &[JobLog], rng: &mut ChaCha8Rng) -> CounterRange {
    let pick = |rng: &mut ChaCha8Rng| {
        let row = &rows[rng.gen_range(0usize..rows.len())];
        row.counters.get(counter)
    };
    let min = if rng.gen_bool(0.2) {
        f64::NEG_INFINITY
    } else {
        pick(rng)
    };
    let max = if rng.gen_bool(0.2) {
        f64::INFINITY
    } else {
        pick(rng)
    };
    let (lo, hi) = if min <= max { (min, max) } else { (max, min) };
    CounterRange::new(counter, lo, hi).unwrap()
}

/// Run one scan into a row list and its summary.
fn collect(
    scan: impl FnOnce(&mut dyn FnMut(&JobLog)) -> aiio_store::Result<ScanSummary>,
) -> (Vec<JobLog>, ScanSummary) {
    let mut rows = Vec::new();
    let summary = scan(&mut |j| rows.push(j.clone())).unwrap();
    (rows, summary)
}

#[test]
fn scan_filtered_equals_scan_plus_filter_over_random_stores_and_ranges() {
    for seed in 0..6u64 {
        let n = 40 + seed * 23;
        let all = jobs(n, seed);
        // Small segments (auto-sealed every 16 rows) plus a live WAL
        // tail, so every range crosses the segment/tail boundary. The
        // same rows go into a plain store and into 1- and 3-shard fleets.
        let config = StoreConfig {
            rows_per_segment: 16,
            wal_block_rows: 8,
        };
        let mut store = Store::open_with(tmpdir(&format!("equiv-{seed}")), config).unwrap();
        store.append_batch(&all).unwrap();
        store.sync().unwrap();
        let mut layouts = vec![("plain", AnyStore::Plain(Box::new(store)))];
        for shards in [1usize, 3] {
            let dir = tmpdir(&format!("equiv-{seed}-fleet{shards}"));
            let mut fleet = ShardedStore::open_with(dir, shards, config).unwrap();
            fleet.append_batch(&all).unwrap();
            fleet.sync().unwrap();
            let name = if shards == 1 { "1-shard" } else { "3-shard" };
            layouts.push((name, AnyStore::Fleet(Box::new(fleet))));
        }

        let mut rng = aiio_testkit::rng(seed ^ 0xD1CE);
        for round in 0..20 {
            let counter = COUNTERS[rng.gen_range(0usize..COUNTERS.len())];
            let range = random_range(counter, &all, &mut rng);
            let expected: Vec<JobLog> = all.iter().filter(|j| range.matches(j)).cloned().collect();
            for (layout, any) in &layouts {
                let total_segments = any.stats().store.segments;
                let (got, summary) = match any {
                    AnyStore::Plain(s) => collect(|sink| s.scan_filtered(&range, sink)),
                    AnyStore::Fleet(f) => collect(|sink| f.scan_filtered(&range, sink)),
                };
                assert_eq!(
                    got, expected,
                    "seed {seed} round {round} {layout}: filtered rows diverge for {range:?}"
                );
                assert_eq!(
                    summary.rows_matched,
                    expected.len(),
                    "seed {seed} round {round} {layout}: summary.rows_matched wrong"
                );
                assert_eq!(
                    summary.segments_scanned + summary.segments_skipped,
                    total_segments,
                    "seed {seed} round {round} {layout}: summary does not account for every segment"
                );
                // The owned read views are the same scan, snapshot first:
                // the layout's own and `AnyStore`'s.
                let view = match any {
                    AnyStore::Plain(s) => s.read_view(),
                    AnyStore::Fleet(f) => f.read_view(),
                };
                for (surface, view) in [("read-view", view), ("AnyStore view", any.read_view())] {
                    let (via_view, view_summary) = collect(|sink| view.scan_filtered(&range, sink));
                    assert_eq!(
                        via_view, expected,
                        "seed {seed} round {round} {layout}: {surface} scan diverges"
                    );
                    assert_eq!(
                        view_summary, summary,
                        "seed {seed} round {round} {layout}: {surface} summary differs from the live scan"
                    );
                }
            }
        }
    }
}

#[test]
fn zone_map_skips_only_provably_disjoint_segments() {
    let dir = tmpdir("pruning");
    let all = jobs(64, 11);
    let mut store = Store::open_with(
        &dir,
        StoreConfig {
            rows_per_segment: 16,
            wal_block_rows: 16,
        },
    )
    .unwrap();
    store.append_batch(&all).unwrap();
    store.sync().unwrap();
    let segments = store.stats().segments;
    assert!(segments >= 4, "test needs several sealed segments");

    // A range beyond every value prunes every segment but still reports
    // the full segment population; only the WAL tail rows get tested.
    let none = CounterRange::new(CounterId::PosixReads, 2e6, f64::INFINITY).unwrap();
    let mut got = Vec::new();
    let summary = store
        .scan_filtered(&none, &mut |j| got.push(j.clone()))
        .unwrap();
    assert!(got.is_empty());
    assert_eq!(summary.segments_skipped, segments);
    assert_eq!(summary.segments_scanned, 0);

    // A match-all range may prune nothing.
    let every = CounterRange::new(CounterId::PosixReads, f64::NEG_INFINITY, f64::INFINITY).unwrap();
    let summary = store.scan_filtered(&every, &mut |_| {}).unwrap();
    assert_eq!(summary.segments_skipped, 0);
    assert_eq!(summary.segments_scanned, segments);
    assert_eq!(summary.rows_matched, all.len());
}

#[test]
fn counter_range_constructor_rejects_unanswerable_bounds() {
    assert_eq!(
        CounterRange::new(CounterId::PosixReads, f64::NAN, 1.0).unwrap_err(),
        RangeError::NotANumber
    );
    assert_eq!(
        CounterRange::new(CounterId::PosixReads, 0.0, f64::NAN).unwrap_err(),
        RangeError::NotANumber
    );
    assert_eq!(
        CounterRange::new(CounterId::PosixReads, 2.0, 1.0).unwrap_err(),
        RangeError::Inverted { min: 2.0, max: 1.0 }
    );
    // Infinite bounds are the half-open spelling, not an error.
    assert!(CounterRange::new(CounterId::PosixReads, f64::NEG_INFINITY, f64::INFINITY).is_ok());
    // Errors read like messages, not Debug dumps.
    let e = CounterRange::new(CounterId::PosixReads, 2.0, 1.0).unwrap_err();
    assert_eq!(e.to_string(), "inverted range: min 2 > max 1");
}
