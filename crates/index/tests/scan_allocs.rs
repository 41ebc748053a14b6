//! The per-query scan path sizes every buffer once: scanning a dirty index never calls
//! `realloc`.
//!
//! Why that is pinned: a pool thread's small first allocation may be a chunk another
//! thread freed (glibc's per-thread cache hands chunks back regardless of arena), and a
//! `realloc` works under the lock of the arena the chunk came from. A vector grown push
//! by push on this path — one per probed block, per query, per thread — therefore had
//! two scanning threads queue on one arena lock, and the served throughput of a dirty
//! index fell into one of two regimes from run to run. Its own test binary, because the
//! counting allocator is process-wide.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

use usp_index::partitioner::RoundRobinPartitioner;
use usp_index::PartitionIndex;
use usp_linalg::{rng, Distance};

thread_local! {
    /// `realloc` calls made by this thread (tests run on threads of their own).
    static REALLOCS: Cell<usize> = const { Cell::new(0) };
}

struct Counting;

// SAFETY: every call is forwarded to `System` unchanged; the counter is a `const`
// thread-local `Cell<usize>`, which neither allocates nor has a destructor.
unsafe impl GlobalAlloc for Counting {
    // SAFETY: `GlobalAlloc`'s contract, which the caller upholds, is `System`'s.
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        // SAFETY: the caller's contract, passed on.
        unsafe { System.alloc(layout) }
    }
    // SAFETY: as `alloc`.
    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: the caller's contract, passed on.
        unsafe { System.dealloc(ptr, layout) }
    }
    // SAFETY: as `alloc`.
    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        let _ = REALLOCS.try_with(|c| c.set(c.get() + 1));
        // SAFETY: the caller's contract, passed on.
        unsafe { System.realloc(ptr, layout, new_size) }
    }
}

#[global_allocator]
static ALLOCATOR: Counting = Counting;

fn reallocs_in<R>(f: impl FnOnce() -> R) -> (R, usize) {
    let before = REALLOCS.with(Cell::get);
    let out = f();
    (out, REALLOCS.with(Cell::get) - before)
}

/// 6 bins of 100 rows, every 7th base id tombstoned (so each bin splits into a dozen
/// live runs), 30 inserts of which every 4th is deleted again.
fn dirty_index() -> (PartitionIndex<RoundRobinPartitioner>, Vec<f32>) {
    let (n, dim, bins) = (600, 8, 6);
    let data = rng::normal_matrix(&mut rng::seeded(7), n + 31, dim, 1.0);
    let base = data.select_rows(&(0..n).collect::<Vec<_>>());
    let index = PartitionIndex::build(
        RoundRobinPartitioner::new(bins),
        &base,
        Distance::SquaredEuclidean,
    );
    for id in (0..n).step_by(7) {
        assert!(index.delete(id), "delete a live base id");
    }
    for j in 0..30 {
        let id = index.insert(data.row(n + j));
        if j % 4 == 0 {
            assert!(index.delete(id), "delete a live insert");
        }
    }
    (index, data.row(n + 30).to_vec())
}

#[test]
fn a_dirty_exact_scan_never_reallocs() {
    let (index, query) = dirty_index();
    let bins: Vec<usize> = (0..6).collect();
    let (result, reallocs) = reallocs_in(|| index.scan_bins(&query, &bins, 10, None));
    assert_eq!(result.ids.len(), 10);
    assert_eq!(reallocs, 0, "scan_bins grew a buffer in place");

    // A capped stream stops mid-bin; the sizing must not depend on where.
    let (_, reallocs) = reallocs_in(|| index.scan_bins(&query, &bins, 10, Some(137)));
    assert_eq!(reallocs, 0, "a capped scan_bins grew a buffer in place");
}

#[test]
fn a_scan_split_over_several_passes_never_reallocs() {
    // What the engine does with more than one shard: one pass per share of the runs,
    // then one `finish` over the passes.
    let (index, query) = dirty_index();
    let bins: Vec<usize> = (0..6).collect();
    let whole = index.scan_bins(&query, &bins, 10, None);
    let (split, reallocs) = reallocs_in(|| {
        let delta = index.delta();
        let consumer = index.consumer(&query, 10, None, None);
        let runs = index.candidate_runs(&bins, Some(&delta), consumer.cap());
        assert!(runs.len() > 6 * 10, "the fixture is meant to be fragmented");
        let passes = [
            consumer.pass(&runs[..runs.len() / 3]),
            consumer.pass(&runs[runs.len() / 3..]),
        ];
        consumer.finish(&passes)
    });
    assert_eq!(split, whole);
    assert_eq!(reallocs, 0, "pass/finish grew a buffer in place");
}
