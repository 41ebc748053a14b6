//! Warm-up contract: `warm_up` pre-spawns the persistent pool's workers, so the first
//! batch served afterwards creates **no** new worker threads.
//!
//! This lives in its own integration-test binary on purpose: the worker pool is
//! process-global and `rayon::pool_worker_count()` counts every worker ever spawned,
//! so exact-count assertions are only deterministic when nothing else in the process
//! runs parallel regions concurrently. Keep this file to a single `#[test]`.

use std::sync::Arc;

use neural_partitioner::baselines::KMeansPartitioner;
use neural_partitioner::serve::{QueryEngine, QueryOptions};
use rayon::{pool_worker_count, with_num_threads};
use usp_data::synthetic;
use usp_index::PartitionIndex;
use usp_linalg::Distance;

#[test]
fn warm_up_prespawns_the_pool_so_serving_never_does() {
    // Build everything under a 1-thread override: every region runs inline, so the
    // pool stays empty and the counts below start from a known state.
    let (index, queries) = with_num_threads(1, || {
        let split = synthetic::sift_like(500, 8, 31).split_queries(32);
        let data = split.base.points();
        let partitioner = KMeansPartitioner::fit(data, 6, 3);
        let index = Arc::new(PartitionIndex::build(
            partitioner,
            data,
            Distance::SquaredEuclidean,
        ));
        (index, split.queries)
    });
    assert_eq!(
        pool_worker_count(),
        0,
        "1-thread regions must not spawn pool workers"
    );

    let engine = QueryEngine::new(Arc::clone(&index));
    let opts = QueryOptions::new(5, 3);

    // A 1-thread warm-up is a no-op: the caller IS the whole pool.
    with_num_threads(1, || engine.warm_up());
    assert_eq!(pool_worker_count(), 0);

    with_num_threads(4, || {
        // Warm-up on a 4-thread pool spawns exactly the 3 helper workers.
        engine.warm_up();
        assert_eq!(
            pool_worker_count(),
            3,
            "warm_up must pre-spawn pool-size - 1 helper workers"
        );

        // The first real batch after warm-up reuses them: no new threads.
        let batch = engine.serve_batch(&queries, &opts);
        assert_eq!(
            pool_worker_count(),
            3,
            "serve_batch after warm_up must not spawn workers"
        );

        // Warming again is idempotent: the workers already exist.
        engine.warm_up();
        assert_eq!(pool_worker_count(), 3);

        // Sanity: the served answers are still the real ones.
        for qi in 0..queries.rows() {
            let expect = index.search(queries.row(qi), opts.k, opts.probes);
            assert_eq!(batch[qi], expect);
        }
    });

    // Pools larger than a region's block cap must still be fully provisioned: a dummy
    // warm region tops out at its block count, which is why warm_up spawns workers
    // directly (`rayon::prespawn_workers`). 100 > the shim's 64-block ceiling.
    with_num_threads(100, || {
        engine.warm_up();
        assert_eq!(
            pool_worker_count(),
            99,
            "warm_up must provision the whole pool, not just one region's block count"
        );
        engine.serve_batch(&queries, &opts);
        assert_eq!(pool_worker_count(), 99);
    });
}
