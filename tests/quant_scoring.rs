//! Compressed-domain scoring equivalence and recall harness.
//!
//! The `Scoring::Compressed` mode trades exactness for candidate-scan bandwidth, so
//! its contract has two halves pinned here:
//!
//! - **Exactness where promised** — exact-mode indexes are bit-identical to indexes
//!   built with no scoring configuration; compressed-mode answers are identical
//!   across the per-query searcher and the batched engine (every pool size, shard
//!   count and budget), because each path re-ranks the same ADC shortlist with the
//!   same exact kernels under the same tie order.
//! - **Accuracy where approximate** — against an exact-mode index with the *same*
//!   routing, the PQ first pass keeps recall@10 ≥ 0.85 on clustered data for every
//!   `Distance` variant, and the CSR code array is exactly the quantizer's encoding
//!   of the permuted `flat` rows (the invariant the blocked ADC kernel relies on).

use std::collections::HashSet;
use std::sync::Arc;
use std::time::Duration;

use neural_partitioner::baselines::KMeansPartitioner;
use neural_partitioner::serve::{QueryEngine, QueryOptions};
use rayon::with_num_threads;
use usp_data::synthetic;
use usp_index::{CodeQuantizer, PartitionIndex, Partitioner, Scoring};
use usp_linalg::kernel::AdcTable;
use usp_linalg::{Distance, Matrix};
use usp_quant::{ProductQuantizer, ProductQuantizerConfig};

const DIST: Distance = Distance::SquaredEuclidean;
const ALL_DISTANCES: [Distance; 4] = [
    Distance::SquaredEuclidean,
    Distance::Euclidean,
    Distance::InnerProduct,
    Distance::Cosine,
];

/// A compressed index and its exact-mode twin sharing the same partitioner (same
/// seed → same assignment → identical routing and candidate streams).
fn twin_indexes(
    data: &Matrix,
    bins: usize,
    distance: Distance,
    rerank_budget: usize,
) -> (
    PartitionIndex<KMeansPartitioner>,
    PartitionIndex<KMeansPartitioner>,
) {
    let exact = PartitionIndex::build(KMeansPartitioner::fit(data, bins, 7), data, distance);
    let pq = ProductQuantizer::fit(data, &ProductQuantizerConfig::standard(4, 32));
    let compressed = PartitionIndex::build(KMeansPartitioner::fit(data, bins, 7), data, distance)
        .with_scoring(Scoring::compressed(Arc::new(pq), rerank_budget));
    (exact, compressed)
}

#[test]
fn compressed_recall_stays_high_for_every_distance() {
    let split = synthetic::blobs(1500, 16, 8, 2.0, 17).split_queries(30);
    let data = split.base.points();
    let (k, probes) = (10, 4);
    for distance in ALL_DISTANCES {
        let (exact, compressed) = twin_indexes(data, 16, distance, 120);
        let mut recall = 0.0;
        for qi in 0..split.queries.rows() {
            let q = split.queries.row(qi);
            let truth = exact.search(q, k, probes);
            let approx = compressed.search(q, k, probes);
            // Same routing, so the compressed pass saw exactly the candidates the
            // exact scan ranked.
            assert_eq!(approx.compressed_scanned, truth.candidates_scanned);
            let t: HashSet<usize> = truth.ids.iter().copied().collect();
            recall += approx.ids.iter().filter(|i| t.contains(i)).count() as f64 / k as f64;
        }
        recall /= split.queries.rows() as f64;
        assert!(
            recall >= 0.85,
            "compressed recall@10 for {distance:?} too low: {recall}"
        );
    }
}

#[test]
fn generous_budget_reproduces_exact_answers() {
    // A shortlist covering the whole candidate stream makes the two-phase scan
    // degenerate to an exact scan: phase 2 ranks every candidate with the exact
    // kernel under the stream-position tie order.
    let split = synthetic::blobs(700, 12, 6, 1.5, 23).split_queries(20);
    let data = split.base.points();
    let (exact, compressed) = twin_indexes(data, 8, Distance::SquaredEuclidean, 700);
    for qi in 0..split.queries.rows() {
        let q = split.queries.row(qi);
        let e = exact.search(q, 10, 3);
        let c = compressed.search(q, 10, 3);
        assert_eq!(e.ids, c.ids, "query {qi}");
        assert_eq!(c.candidates_scanned, e.candidates_scanned);
        assert_eq!(c.compressed_scanned, e.candidates_scanned);
    }
}

#[test]
fn compressed_batch_serving_matches_per_query_search_for_every_pool_size() {
    let split = synthetic::blobs(900, 12, 8, 2.0, 31).split_queries(48);
    let data = split.base.points();
    let queries = &split.queries;
    let (k, probes) = (10, 3);

    let reference: Vec<_> = with_num_threads(1, || {
        let (_, compressed) = twin_indexes(data, 10, Distance::SquaredEuclidean, 80);
        (0..queries.rows())
            .map(|qi| compressed.search(queries.row(qi), k, probes))
            .collect()
    });
    for &t in &[1usize, 2, 3, 4, 8] {
        let (batch, engine_batch) = with_num_threads(t, || {
            let (_, compressed) = twin_indexes(data, 10, Distance::SquaredEuclidean, 80);
            let compressed = Arc::new(compressed);
            let batch = compressed.search_batch(queries, k, probes);
            let engine = QueryEngine::new(Arc::clone(&compressed));
            let engine_batch = engine.serve_batch(queries, &QueryOptions::new(k, probes));
            (batch, engine_batch)
        });
        assert_eq!(reference, batch, "search_batch differs at {t} threads");
        assert_eq!(
            reference, engine_batch,
            "QueryEngine.serve_batch differs at {t} threads"
        );
    }
}

#[test]
fn sharded_compressed_engine_is_bit_identical_to_the_monolith() {
    let split = synthetic::blobs(800, 12, 8, 2.0, 41).split_queries(32);
    let data = split.base.points();
    let queries = &split.queries;
    let (_, compressed) = twin_indexes(data, 10, Distance::SquaredEuclidean, 60);
    let index = Arc::new(compressed);
    let engines = [
        QueryEngine::new(Arc::clone(&index)),
        QueryEngine::with_shards(Arc::clone(&index), 2),
        QueryEngine::with_shards(Arc::clone(&index), 4),
    ];
    for budget in [None, Some(15), Some(2000)] {
        let mut opts = QueryOptions::new(10, 4);
        opts.rerank_budget = budget;
        // The monolith: one pass over each query's whole stream.
        let expect: Vec<_> = (0..queries.rows())
            .map(|qi| {
                let bins = index.partitioner().rank_bins(queries.row(qi), opts.probes);
                index.scan_bins(queries.row(qi), &bins, opts.k, budget)
            })
            .collect();
        for (shards, engine) in [1, 2, 4].iter().zip(&engines) {
            let got = engine.serve_batch(queries, &opts);
            assert_eq!(got, expect, "shards={shards} budget={budget:?}");
            // Spot-check the single-query path too.
            assert_eq!(engine.query(queries.row(0), &opts), expect[0]);
        }
    }
}

#[test]
fn budget_counts_exact_evaluations_in_both_modes() {
    let split = synthetic::blobs(600, 8, 6, 1.5, 53).split_queries(8);
    let data = split.base.points();
    let (exact, compressed) = twin_indexes(data, 6, Distance::SquaredEuclidean, 50);
    let (k, probes, budget) = (5, 6, 37);
    for qi in 0..split.queries.rows() {
        let q = split.queries.row(qi);
        let stream = exact.search(q, k, probes).candidates_scanned;
        assert!(stream > budget, "test needs busier bins");
        // Exact mode: the budget truncates the stream prefix.
        let bins = exact.partitioner().rank_bins(q, probes);
        let e = exact.scan_bins(q, &bins, k, Some(budget));
        assert_eq!(e.candidates_scanned, budget);
        assert_eq!(e.compressed_scanned, 0);
        // Compressed mode: the same knob sizes the exactly re-ranked shortlist while
        // the ADC pass still sees the whole stream.
        let bins = compressed.partitioner().rank_bins(q, probes);
        let c = compressed.scan_bins(q, &bins, k, Some(budget));
        assert_eq!(c.candidates_scanned, budget);
        assert_eq!(c.compressed_scanned, stream);
    }
}

#[test]
fn engine_stats_expose_the_compressed_pass() {
    let split = synthetic::blobs(600, 8, 6, 1.5, 61).split_queries(16);
    let data = split.base.points();
    let (exact, compressed) = twin_indexes(data, 6, Distance::SquaredEuclidean, 40);
    let opts = QueryOptions::new(5, 4);

    let engine = QueryEngine::new(Arc::new(compressed));
    engine.serve_batch(&split.queries, &opts);
    let snap = engine.stats();
    assert!(snap.mean_compressed_candidates > snap.mean_candidates);
    assert!(
        snap.survivor_ratio > 0.0 && snap.survivor_ratio < 1.0,
        "survivor ratio {} not in (0, 1)",
        snap.survivor_ratio
    );
    let expect = snap.mean_candidates / snap.mean_compressed_candidates;
    assert!((snap.survivor_ratio - expect).abs() < 1e-12);

    // Exact engines keep the compressed telemetry at zero.
    let engine = QueryEngine::new(Arc::new(exact));
    engine.serve_batch(&split.queries, &opts);
    let snap = engine.stats();
    assert_eq!(snap.mean_compressed_candidates, 0.0);
    assert_eq!(snap.survivor_ratio, 0.0);
}

/// A fitted product quantizer whose ADC-table build takes [`SlowTables::BUILD`].
struct SlowTables(ProductQuantizer);

impl SlowTables {
    const BUILD: Duration = Duration::from_millis(5);
}

impl CodeQuantizer for SlowTables {
    fn dim(&self) -> usize {
        self.0.dim()
    }
    fn code_len(&self) -> usize {
        self.0.code_len()
    }
    fn encode_into(&self, point: &[f32], out: &mut [u8]) {
        self.0.encode_into(point, out)
    }
    fn adc_table(&self, distance: Distance, query: &[f32]) -> AdcTable {
        std::thread::sleep(Self::BUILD);
        self.0.adc_table(distance, query)
    }
}

#[test]
fn recorded_latency_includes_the_adc_table_build_for_every_shard_count() {
    let split = synthetic::blobs(300, 8, 4, 1.5, 67).split_queries(1);
    let data = split.base.points();
    let pq = ProductQuantizer::fit(data, &ProductQuantizerConfig::standard(4, 16));
    let index = PartitionIndex::build(KMeansPartitioner::fit(data, 4, 7), data, DIST)
        .with_scoring(Scoring::compressed(Arc::new(SlowTables(pq)), 20));
    let index = Arc::new(index);
    // The histogram reports a bucket's lower bound, up to 1/64 below the sample.
    let floor = SlowTables::BUILD.as_micros() as u64 * 63 / 64;
    for shards in [1usize, 2] {
        let engine = QueryEngine::with_shards(Arc::clone(&index), shards);
        engine.serve_batch(&split.queries, &QueryOptions::new(5, 3));
        let p50 = engine.stats().p50_latency_us;
        assert!(
            p50 >= floor,
            "shards={shards}: p50 {p50} us leaves out the {floor} us table build"
        );
    }
}

mod proptests {
    use super::*;
    use proptest::prelude::*;

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(8))]
        #[test]
        fn csr_codes_are_the_quantizers_encoding_of_the_permuted_rows(
            n in 80usize..250,
            bins in 2usize..7,
            seed in 0u64..1000,
        ) {
            let data = synthetic::blobs(n, 8, bins, 1.5, seed).points().clone();
            let pq = ProductQuantizer::fit(&data, &ProductQuantizerConfig::standard(4, 8));
            let codes_of = pq.encode_all(&data);
            let m = pq.code_len();
            let index = PartitionIndex::build(
                KMeansPartitioner::fit(&data, bins, seed),
                &data,
                Distance::SquaredEuclidean,
            )
            .with_scoring(Scoring::compressed(Arc::new(pq), 10));
            let mut covered = 0usize;
            for b in 0..index.num_bins() {
                let bucket = index.bucket(b);
                let slice = index.bin_codes(b).expect("compressed index has codes");
                prop_assert_eq!(slice.len(), bucket.len() * m, "bin {} stride", b);
                for (j, &gid) in bucket.iter().enumerate() {
                    let gid = gid as usize;
                    prop_assert_eq!(
                        &slice[j * m..(j + 1) * m],
                        &codes_of[gid * m..(gid + 1) * m],
                        "bin {} row {} != encode(point {})", b, j, gid
                    );
                }
                covered += bucket.len();
            }
            prop_assert_eq!(covered, n);
        }
    }
}
