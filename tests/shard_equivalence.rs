//! Shard equivalence harness: the one engine at every shard count vs the index.
//!
//! The sharding contract extends the serving contract one level out: splitting bins
//! across shards is *placement*, never a semantic change. For every shard count
//! (`QueryEngine::new` is the one-shard row), pool size, and per-request knob
//! combination, `QueryEngine::serve_batch` must answer **bit-identically** to the
//! index's own per-query paths — `PartitionIndex::search` when no re-rank budget is
//! set, and `rank_bins` + `PartitionIndex::scan_bins` (one pass over the whole
//! stream, which defines budget semantics) otherwise — at shard counts {1, 2, 4, 7},
//! and for micro-batched submissions. CI's two full-suite runs put this whole file under
//! `USP_NUM_THREADS=1` and `USP_NUM_THREADS=4`.

use std::sync::Arc;
use std::time::Duration;

use neural_partitioner::baselines::KMeansPartitioner;
use neural_partitioner::serve::{MicroBatcher, QueryEngine, QueryOptions};
use rayon::with_num_threads;
use usp_data::synthetic;
use usp_index::{PartitionIndex, Partitioner, SearchResult};
use usp_linalg::{Distance, Matrix};

const DIST: Distance = Distance::SquaredEuclidean;

/// Shard counts under test: 1 (the monolith), powers of two, and a prime that cannot
/// divide the bin count evenly.
const SHARD_COUNTS: [usize; 4] = [1, 2, 4, 7];

/// Pool sizes the whole grid is exercised under.
const POOL_SIZES: [usize; 2] = [1, 4];

fn fixture() -> (Arc<PartitionIndex<KMeansPartitioner>>, Matrix) {
    let split = synthetic::sift_like(900, 12, 71).split_queries(48);
    let data = split.base.points();
    // Build single-threaded so every pool size sees the identical index.
    let index = with_num_threads(1, || {
        let partitioner = KMeansPartitioner::fit(data, 9, 5);
        Arc::new(PartitionIndex::build(partitioner, data, DIST))
    });
    (index, split.queries)
}

/// The strictly sequential per-query Searcher reference (no budget semantics).
fn searcher_reference(
    index: &PartitionIndex<KMeansPartitioner>,
    queries: &Matrix,
    k: usize,
    probes: usize,
) -> Vec<SearchResult> {
    with_num_threads(1, || {
        (0..queries.rows())
            .map(|qi| index.search(queries.row(qi), k, probes))
            .collect()
    })
}

/// Per-query `rank_bins` + one `scan_bins` over the whole stream: the reference that
/// defines budget semantics (truncate the bin-rank-ordered stream, or size the ADC
/// shortlist), with no batching and no grouping by shard.
fn scan_reference(
    index: &PartitionIndex<KMeansPartitioner>,
    queries: &Matrix,
    opts: &QueryOptions,
) -> Vec<SearchResult> {
    with_num_threads(1, || {
        (0..queries.rows())
            .map(|qi| {
                let q = queries.row(qi);
                let bins = index.partitioner().rank_bins(q, opts.probes);
                index.scan_bins(q, &bins, opts.k, opts.rerank_budget)
            })
            .collect()
    })
}

/// The engine at `shards` shards; the one-shard row is `QueryEngine::new`.
fn engine(
    index: &Arc<PartitionIndex<KMeansPartitioner>>,
    shards: usize,
) -> QueryEngine<KMeansPartitioner> {
    match shards {
        1 => QueryEngine::new(Arc::clone(index)),
        _ => QueryEngine::with_shards(Arc::clone(index), shards),
    }
}

#[test]
fn sharded_serve_batch_is_bit_identical_to_the_searcher_path() {
    let (index, queries) = fixture();
    for &(k, probes) in &[(10usize, 3usize), (1, 1), (5, 9), (3, 100)] {
        let reference = searcher_reference(&index, &queries, k, probes);
        let opts = QueryOptions::new(k, probes);
        for &threads in &POOL_SIZES {
            for &shards in &SHARD_COUNTS {
                let got = with_num_threads(threads, || {
                    engine(&index, shards).serve_batch(&queries, &opts)
                });
                assert_eq!(
                    reference, got,
                    "sharded answers differ: shards={shards} threads={threads} k={k} probes={probes}"
                );
            }
        }
    }
}

#[test]
fn rerank_budgets_match_the_unsharded_engine_exactly() {
    let (index, queries) = fixture();
    // Budget semantics are defined by one `scan_bins` over the whole stream (truncate
    // the bin-rank-ordered candidate list, then re-rank); the engine must replicate
    // them through its per-shard passes. 0 = answer nothing, 1 = single candidate,
    // mid-range budgets cut inside a bin, huge = no-op.
    for &budget in &[0usize, 1, 7, 63, 10_000] {
        let opts = QueryOptions::new(8, 4).with_rerank_budget(budget);
        let reference = scan_reference(&index, &queries, &opts);
        for &threads in &POOL_SIZES {
            for &shards in &SHARD_COUNTS {
                let got = with_num_threads(threads, || {
                    engine(&index, shards).serve_batch(&queries, &opts)
                });
                assert_eq!(
                    reference, got,
                    "budgeted answers differ: shards={shards} threads={threads} budget={budget}"
                );
            }
        }
    }
}

#[test]
fn micro_batched_submissions_ride_the_sharded_path_unchanged() {
    let (index, queries) = fixture();
    let opts = QueryOptions::new(5, 3);
    let reference = searcher_reference(&index, &queries, opts.k, opts.probes);
    for &threads in &POOL_SIZES {
        for &shards in &[2usize, 7] {
            let micro = with_num_threads(threads, || {
                let engine = Arc::new(engine(&index, shards));
                let batcher =
                    MicroBatcher::new(Arc::clone(&engine), opts, 16, Duration::from_millis(2));
                let receivers: Vec<_> = (0..queries.rows())
                    .map(|qi| batcher.submit(queries.row(qi).to_vec()))
                    .collect();
                receivers
                    .into_iter()
                    .map(|rx| rx.recv().expect("flusher delivers an answer"))
                    .collect::<Vec<_>>()
            });
            assert_eq!(
                reference, micro,
                "micro-batched sharded answers differ: shards={shards} threads={threads}"
            );
        }
    }
}

#[test]
fn mixed_per_request_knobs_stay_independent_across_shards() {
    let (index, queries) = fixture();
    let sharded = engine(&index, 4);
    // Interleaved batches with different knobs against the same engine: each must
    // match its own reference (per-request options never leak across batches).
    let plans = [
        QueryOptions::new(1, 1),
        QueryOptions::new(10, 5).with_rerank_budget(40),
        QueryOptions::new(4, 9),
    ];
    for opts in &plans {
        assert_eq!(
            sharded.serve_batch(&queries, opts),
            scan_reference(&index, &queries, opts),
            "knobs {opts:?} diverged"
        );
    }
}
