//! Serving equivalence for every per-request knob: the engine vs the index.
//!
//! The engine once split bins across shards; every query is now one pass over its own
//! candidate stream, and the file and test names are kept so the suite's names do not
//! move. For every pool size and knob combination, `QueryEngine::serve_batch` must
//! answer **bit-identically** to the index's own strictly sequential per-query paths on
//! ONE thread — `PartitionIndex::search` when no re-rank budget is set, and
//! `rank_bins` + one `PartitionIndex::scan_bins` (which defines budget semantics)
//! otherwise. CI's two full-suite runs put this whole file under `USP_NUM_THREADS=1`
//! and `USP_NUM_THREADS=4`.

use std::sync::Arc;

use neural_partitioner::baselines::KMeansPartitioner;
use neural_partitioner::serve::{QueryEngine, QueryOptions};
use rayon::with_num_threads;
use usp_data::synthetic;
use usp_index::{PartitionIndex, Partitioner, SearchResult};
use usp_linalg::{Distance, Matrix};

const DIST: Distance = Distance::SquaredEuclidean;

/// Pool sizes every knob is exercised under.
const POOL_SIZES: [usize; 2] = [1, 4];

fn fixture() -> (Arc<PartitionIndex<KMeansPartitioner>>, Matrix) {
    let split = synthetic::sift_like(900, 12, 71).split_queries(48);
    let data = split.base.points();
    // Built single-threaded so every pool size sees the identical index.
    let index = with_num_threads(1, || {
        let partitioner = KMeansPartitioner::fit(data, 9, 5);
        Arc::new(PartitionIndex::build(partitioner, data, DIST))
    });
    (index, split.queries)
}

/// The sequential per-query reference for `opts`: `search` without a budget, one
/// `scan_bins` over the ranked bins with one.
fn reference(
    index: &PartitionIndex<KMeansPartitioner>,
    queries: &Matrix,
    opts: &QueryOptions,
) -> Vec<SearchResult> {
    with_num_threads(1, || {
        (0..queries.rows())
            .map(|qi| {
                let q = queries.row(qi);
                match opts.rerank_budget {
                    None => index.search(q, opts.k, opts.probes),
                    budget => {
                        let bins = index.partitioner().rank_bins(q, opts.probes);
                        index.scan_bins(q, &bins, opts.k, budget)
                    }
                }
            })
            .collect()
    })
}

/// Asserts the engine matches `reference` for `opts` at every pool size.
fn assert_engine_matches(
    index: &Arc<PartitionIndex<KMeansPartitioner>>,
    queries: &Matrix,
    opts: &QueryOptions,
) {
    let expected = reference(index, queries, opts);
    for &threads in &POOL_SIZES {
        let got = with_num_threads(threads, || {
            QueryEngine::new(Arc::clone(index)).serve_batch(queries, opts)
        });
        assert_eq!(expected, got, "{opts:?} differs at {threads} threads");
    }
}

#[test]
fn sharded_serve_batch_is_bit_identical_to_the_searcher_path() {
    let (index, queries) = fixture();
    // Probe counts reach past the 9 bins.
    for &(k, probes) in &[(10usize, 3usize), (1, 1), (5, 9), (3, 100)] {
        assert_engine_matches(&index, &queries, &QueryOptions::new(k, probes));
    }
}

#[test]
fn rerank_budgets_match_the_unsharded_engine_exactly() {
    let (index, queries) = fixture();
    // 0 = answer nothing, 1 = a single candidate, mid-range budgets cut inside a bin,
    // huge = no-op.
    for &budget in &[0usize, 1, 7, 63, 10_000] {
        let opts = QueryOptions::new(8, 4).with_rerank_budget(budget);
        assert_engine_matches(&index, &queries, &opts);
    }
}
