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
use std::sync::Arc;

use usp_index::partitioner::RoundRobinPartitioner;
use usp_index::{CodeQuantizer, PartitionIndex, Scoring};
use usp_linalg::kernel::{AdcTable, QueryScorer};
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

/// One byte per 8-d point — the signs of its coordinates — decoded to (±1, …, ±1).
struct SignBits;

impl CodeQuantizer for SignBits {
    fn dim(&self) -> usize {
        8
    }
    fn code_len(&self) -> usize {
        1
    }
    fn encode_into(&self, point: &[f32], out: &mut [u8]) {
        out[0] = (0..8).map(|j| ((point[j] > 0.0) as u8) << j).sum();
    }
    fn adc_table(&self, distance: Distance, query: &[f32]) -> AdcTable {
        let scorer = QueryScorer::new(distance, query);
        let decode = |c: usize| -> Vec<f32> {
            (0..8)
                .map(|j| if c >> j & 1 == 0 { -1.0 } else { 1.0 })
                .collect()
        };
        AdcTable::Sum {
            table: (0..256).map(|c| scorer.eval(&decode(c))).collect(),
            n_centroids: 256,
        }
    }
}

/// 6 bins of 100 rows, every 7th base id tombstoned (so each bin splits into a dozen
/// live runs), 30 inserts of which every 4th is deleted again; scored under `scoring`.
fn dirty_index(scoring: Scoring) -> (PartitionIndex<RoundRobinPartitioner>, Vec<f32>) {
    let (n, dim, bins) = (600, 8, 6);
    let data = rng::normal_matrix(&mut rng::seeded(7), n + 31, dim, 1.0);
    let base = data.select_rows(&(0..n).collect::<Vec<_>>());
    let index = PartitionIndex::build(
        RoundRobinPartitioner::new(bins),
        &base,
        Distance::SquaredEuclidean,
    )
    .with_scoring(scoring);
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
    let (index, query) = dirty_index(Scoring::Exact);
    let bins: Vec<usize> = (0..6).collect();
    let (result, reallocs) = reallocs_in(|| index.scan_bins(&query, &bins, 10, None));
    assert_eq!(result.ids.len(), 10);
    assert_eq!(reallocs, 0, "scan_bins grew a buffer in place");

    // A capped stream stops mid-bin; the sizing must not depend on where.
    let (_, reallocs) = reallocs_in(|| index.scan_bins(&query, &bins, 10, Some(137)));
    assert_eq!(reallocs, 0, "a capped scan_bins grew a buffer in place");
}

#[test]
fn a_dirty_compressed_scan_never_reallocs() {
    // The two-phase consumer: an ADC shortlist over the live CSR codes, the codeless
    // membin rows scored exactly, the shortlist re-ranked from the rows.
    let (index, query) = dirty_index(Scoring::compressed(Arc::new(SignBits), 40));
    let bins: Vec<usize> = (0..6).collect();
    for budget in [None, Some(25)] {
        let (result, reallocs) = reallocs_in(|| index.scan_bins(&query, &bins, 10, budget));
        assert_eq!(result.ids.len(), 10);
        assert!(result.compressed_scanned > 0, "the codes were ADC-scored");
        assert_eq!(
            reallocs, 0,
            "a compressed scan_bins grew a buffer in place (budget {budget:?})"
        );
    }
}
