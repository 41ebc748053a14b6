//! Parallel-vs-sequential equivalence harness.
//!
//! The rayon shim executes parallel regions over blocks whose boundaries never depend on
//! the thread count, so every hot path is required to produce **bit-identical** results
//! on 1 thread and on many. These tests pin that contract for each paper-critical
//! kernel: dense matmul, exact k-NN ground truth, k-means (assignment + parallel update),
//! PQ encoding, index building and the evaluation sweep. CI additionally runs the whole
//! suite under `USP_NUM_THREADS=1` and `USP_NUM_THREADS=4`; the in-process
//! `rayon::with_num_threads` override used here makes the comparison explicit and
//! self-contained regardless of the ambient pool size.

use std::sync::Arc;

use neural_partitioner::baselines::KMeansPartitioner;
use neural_partitioner::serve::{QueryEngine, QueryOptions};
use rayon::with_num_threads;
use usp_data::{exact_knn, synthetic, KnnMatrix};
use usp_index::PartitionIndex;
use usp_linalg::{rng as lrng, Distance, Matrix};
use usp_quant::{KMeans, KMeansConfig, ProductQuantizer, ProductQuantizerConfig};

const DIST: Distance = Distance::SquaredEuclidean;

/// Thread counts compared against the single-threaded reference. Deliberately not powers
/// of two only: ragged splits across 3 workers catch off-by-one chunking bugs.
const THREAD_COUNTS: &[usize] = &[2, 3, 4, 8];

fn random_matrix(rows: usize, cols: usize, seed: u64) -> Matrix {
    let mut rng = lrng::seeded(seed);
    let data = (0..rows * cols)
        .map(|_| lrng::standard_normal(&mut rng))
        .collect();
    Matrix::from_vec(rows, cols, data)
}

#[test]
fn matmul_is_bit_identical_across_thread_counts() {
    // Odd shapes so blocks do not divide evenly — neither the pool's row blocks nor the
    // kernels': inner lengths 33 and 35 leave `k % 4` tails of 1 and 3, `bt`'s 41 and 45
    // rows leave a single row resp. a four-row block and a single past the forward
    // kernel's eight-row blocks, and every output row count is ragged against the
    // backward kernels' eight-row blocks.
    for (seed, (n, k, m, c)) in [(11, (57, 33, 41, 29)), (21, (61, 35, 45, 13))] {
        let a = random_matrix(n, k, seed);
        let b = random_matrix(k, m, seed + 1);
        let bt = random_matrix(m, k, seed + 2);
        let c = random_matrix(n, c, seed + 3);
        let products = || {
            (
                a.matmul(&b),
                a.matmul_transpose_b(&bt),
                a.transpose_matmul(&c),
            )
        };
        let reference = with_num_threads(1, products);
        for &t in THREAD_COUNTS {
            let (mm, mtb, tmm) = with_num_threads(t, products);
            assert_eq!(
                reference.0.as_slice(),
                mm.as_slice(),
                "matmul differs at {t} threads"
            );
            assert_eq!(
                reference.1.as_slice(),
                mtb.as_slice(),
                "matmul_transpose_b differs at {t} threads"
            );
            assert_eq!(
                reference.2.as_slice(),
                tmm.as_slice(),
                "transpose_matmul differs at {t} threads"
            );
        }
    }
}

#[test]
fn exact_knn_and_knn_matrix_are_thread_count_invariant() {
    let base = random_matrix(400, 12, 21);
    let queries = random_matrix(60, 12, 22);

    let knn_ref = with_num_threads(1, || exact_knn(&base, &queries, 10, DIST));
    let matrix_ref = with_num_threads(1, || KnnMatrix::build(&base, 8, DIST));
    for &t in THREAD_COUNTS {
        let knn = with_num_threads(t, || exact_knn(&base, &queries, 10, DIST));
        assert_eq!(knn_ref, knn, "exact_knn differs at {t} threads");
        let matrix = with_num_threads(t, || KnnMatrix::build(&base, 8, DIST));
        assert_eq!(
            matrix_ref.as_slice(),
            matrix.as_slice(),
            "KnnMatrix differs at {t} threads"
        );
    }
}

#[test]
fn kmeans_fit_and_assignment_are_thread_count_invariant() {
    // Covers the parallel assignment step AND the chunk-accumulated update step: any
    // thread-count-dependent float merge would make centroids drift apart over the
    // Lloyd iterations.
    let data = synthetic::blobs(900, 8, 5, 2.0, 31).points().clone();
    let config = KMeansConfig::new(5);

    let reference = with_num_threads(1, || KMeans::fit(&data, &config));
    let assign_ref = with_num_threads(1, || reference.assign_all(&data));
    for &t in THREAD_COUNTS {
        let model = with_num_threads(t, || KMeans::fit(&data, &config));
        assert_eq!(
            reference.centroids, model.centroids,
            "k-means centroids differ at {t} threads"
        );
        assert_eq!(
            reference.inertia.to_bits(),
            model.inertia.to_bits(),
            "k-means inertia differs at {t} threads"
        );
        let assignments = with_num_threads(t, || model.assign_all(&data));
        assert_eq!(assign_ref, assignments, "assignments differ at {t} threads");
    }
}

#[test]
fn pq_training_and_encoding_are_thread_count_invariant() {
    let data = synthetic::sift_like(500, 16, 41).points().clone();
    let config = ProductQuantizerConfig::standard(4, 16);

    let (codes_ref, err_ref) = with_num_threads(1, || {
        let pq = ProductQuantizer::fit(&data, &config);
        (pq.encode_all(&data), pq.reconstruction_error(&data))
    });
    for &t in THREAD_COUNTS {
        let (codes, err) = with_num_threads(t, || {
            let pq = ProductQuantizer::fit(&data, &config);
            (pq.encode_all(&data), pq.reconstruction_error(&data))
        });
        assert_eq!(codes_ref, codes, "PQ codes differ at {t} threads");
        assert_eq!(
            err_ref.to_bits(),
            err.to_bits(),
            "PQ reconstruction error differs at {t} threads"
        );
    }
}

#[test]
fn partition_index_build_is_thread_count_invariant() {
    let data = synthetic::blobs(600, 6, 4, 1.5, 51).points().clone();

    let build = |threads: usize| {
        with_num_threads(threads, || {
            let partitioner = KMeansPartitioner::fit(&data, 4, 7);
            PartitionIndex::build(partitioner, &data, DIST)
        })
    };
    let reference = build(1);
    for &t in THREAD_COUNTS {
        let index = build(t);
        for bin in 0..reference.num_bins() {
            assert_eq!(
                reference.bucket(bin),
                index.bucket(bin),
                "bucket {bin} differs at {t} threads"
            );
        }
    }
}

#[test]
fn compressed_index_build_is_thread_count_invariant() {
    // The CSR code array is encoded in a parallel region at `with_scoring` time and
    // the quantizer itself trains each subspace in parallel; both must be
    // thread-count invariant for compressed answers to be reproducible.
    let data = synthetic::blobs(500, 8, 4, 1.5, 81).points().clone();
    let queries = random_matrix(12, 8, 82);

    let build = |threads: usize| {
        with_num_threads(threads, || {
            let pq = ProductQuantizer::fit(&data, &ProductQuantizerConfig::standard(4, 8));
            let partitioner = KMeansPartitioner::fit(&data, 4, 7);
            PartitionIndex::build(partitioner, &data, DIST)
                .with_scoring(usp_index::Scoring::compressed(Arc::new(pq), 30))
        })
    };
    let reference = build(1);
    for &t in THREAD_COUNTS {
        let index = build(t);
        for bin in 0..reference.num_bins() {
            assert_eq!(
                reference.bin_codes(bin),
                index.bin_codes(bin),
                "bin {bin} codes differ at {t} threads"
            );
        }
        for qi in 0..queries.rows() {
            assert_eq!(
                reference.search(queries.row(qi), 5, 2),
                with_num_threads(t, || index.search(queries.row(qi), 5, 2)),
                "compressed search differs at {t} threads"
            );
        }
    }
}

#[test]
fn recall_sweep_is_thread_count_invariant() {
    // The batch query-scoring loop in usp-eval fans out per query; its ordered merge
    // must keep the sweep deterministic.
    let split = synthetic::sift_like(700, 10, 61).split_queries(50);
    let data = split.base.points();
    let truth = exact_knn(data, &split.queries, 10, DIST);

    let sweep = |threads: usize| {
        with_num_threads(threads, || {
            let partitioner = KMeansPartitioner::fit(data, 8, 3);
            let index = PartitionIndex::build(partitioner, data, DIST);
            usp_eval::sweep_probes(&split.queries, &truth, &[1, 2, 4, 8], |q, p| {
                index.search(q, 10, p)
            })
        })
    };
    let reference = sweep(1);
    for &t in THREAD_COUNTS {
        assert_eq!(reference, sweep(t), "sweep differs at {t} threads");
    }
}

#[test]
fn serve_batch_is_bit_identical_to_per_query_searcher_results() {
    // The serving contract: QueryEngine batches are an execution strategy, never a
    // semantic change. The reference is the strictly sequential per-query Searcher
    // path on ONE thread; the engine must reproduce it bit-for-bit on every pool size
    // (CI additionally re-runs this whole suite under USP_NUM_THREADS=1 and =4).
    let split = synthetic::sift_like(800, 12, 71).split_queries(64);
    let data = split.base.points();
    let queries = &split.queries;
    let (k, probes) = (10, 3);

    let reference: Vec<_> = with_num_threads(1, || {
        let partitioner = KMeansPartitioner::fit(data, 8, 5);
        let index = PartitionIndex::build(partitioner, data, DIST);
        (0..queries.rows())
            .map(|qi| index.search(queries.row(qi), k, probes))
            .collect()
    });

    for &t in &[1usize, 4] {
        let (batch, engine_batch, micro) = with_num_threads(t, || {
            let partitioner = KMeansPartitioner::fit(data, 8, 5);
            let index = Arc::new(PartitionIndex::build(partitioner, data, DIST));
            let batch = index.search_batch(queries, k, probes);
            let engine = QueryEngine::new(Arc::clone(&index));
            let engine_batch = engine.serve_batch(queries, &QueryOptions::new(k, probes));
            // Micro-batched single submissions must land on the same answers.
            let batcher = neural_partitioner::serve::MicroBatcher::new(
                Arc::new(QueryEngine::new(Arc::clone(&index))),
                QueryOptions::new(k, probes),
                16,
                std::time::Duration::from_millis(2),
            );
            let receivers: Vec<_> = (0..queries.rows())
                .map(|qi| batcher.submit(queries.row(qi).to_vec()))
                .collect();
            let micro: Vec<_> = receivers.into_iter().map(|rx| rx.recv().unwrap()).collect();
            (batch, engine_batch, micro)
        });
        assert_eq!(
            reference, batch,
            "index.search_batch differs at {t} threads"
        );
        assert_eq!(
            reference, engine_batch,
            "QueryEngine.serve_batch differs at {t} threads"
        );
        assert_eq!(
            reference, micro,
            "micro-batched answers differ at {t} threads"
        );
    }
}

mod proptests {
    use super::*;
    use proptest::prelude::*;

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(8))]
        #[test]
        fn bucket_contents_are_thread_count_invariant(
            n in 60usize..200,
            bins in 2usize..7,
            threads in 2usize..9,
            seed in 0u64..1000,
        ) {
            let data = synthetic::blobs(n, 4, bins, 1.0, seed).points().clone();
            let build = |t: usize| {
                with_num_threads(t, || {
                    let partitioner = KMeansPartitioner::fit(&data, bins, seed);
                    PartitionIndex::build(partitioner, &data, DIST)
                })
            };
            let sequential = build(1);
            let parallel = build(threads);
            prop_assert_eq!(sequential.num_bins(), parallel.num_bins());
            for bin in 0..sequential.num_bins() {
                prop_assert_eq!(sequential.bucket(bin), parallel.bucket(bin));
            }
        }
    }
}
