//! Pooled-region contract: every headline hot path — `Matrix::matmul`, `exact_knn`,
//! `KnnMatrix::build`, `PartitionIndex::build`, `QueryEngine::serve_batch` — hands work
//! to the persistent pool when the pool has more than one thread.
//!
//! `tests/parallel_equivalence.rs` cannot see a path that lost its `par_iter`: a
//! sequential run is still bit-identical. The count can. Workers are spawned at region
//! submit, on the submitting thread, so an empty pool that is non-empty after the call
//! is proof the call opened a region — no timing, no CPU-count precondition.
//!
//! Like `tests/warm_up.rs` this is a single `#[test]` in its own binary: the pool is
//! process-global, so the counts are only deterministic when nothing else runs regions.

use std::sync::Arc;

use neural_partitioner::baselines::KMeansPartitioner;
use neural_partitioner::serve::{QueryEngine, QueryOptions};
use rayon::{pool_worker_count, shutdown_pool, with_num_threads};
use usp_data::{exact_knn, synthetic, KnnMatrix};
use usp_index::PartitionIndex;
use usp_linalg::Distance;

const DIST: Distance = Distance::SquaredEuclidean;

/// Empties the pool, runs `path` on a 4-thread pool, and requires that it spawned.
fn assert_opens_a_region<R>(name: &str, path: impl FnOnce() -> R) -> R {
    shutdown_pool();
    assert_eq!(pool_worker_count(), 0, "{name}: pool did not shut down");
    let out = with_num_threads(4, path);
    assert!(
        pool_worker_count() >= 1,
        "{name} ran on a 4-thread pool without opening a parallel region"
    );
    out
}

#[test]
fn every_headline_hot_path_opens_a_pooled_region() {
    // Fixtures under a 1-thread override: every region runs inline, nothing spawns.
    let (split, partitioner) = with_num_threads(1, || {
        let split = synthetic::sift_like(500, 8, 31).split_queries(32);
        let partitioner = KMeansPartitioner::fit(split.base.points(), 6, 3);
        (split, partitioner)
    });
    let (data, queries) = (split.base.points(), &split.queries);
    assert_eq!(pool_worker_count(), 0);

    assert_opens_a_region("Matrix::matmul", || queries.matmul(&data.transpose()));
    assert_opens_a_region("exact_knn", || exact_knn(data, queries, 5, DIST));
    assert_opens_a_region("KnnMatrix::build", || KnnMatrix::build(data, 5, DIST));
    let index = assert_opens_a_region("PartitionIndex::build", || {
        Arc::new(PartitionIndex::build(partitioner, data, DIST))
    });
    let engine = QueryEngine::new(Arc::clone(&index));
    let opts = QueryOptions::new(5, 3);
    let served = assert_opens_a_region("QueryEngine::serve_batch", || {
        engine.serve_batch(queries, &opts)
    });

    // The pooled answers are the real ones.
    for qi in 0..queries.rows() {
        assert_eq!(
            served[qi],
            index.search(queries.row(qi), opts.k, opts.probes)
        );
    }
}
