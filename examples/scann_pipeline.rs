//! End-to-end ANNS pipelines (§5.4.3 / Figure 7): compose the unsupervised partitioner
//! with ScaNN-style anisotropic quantization and compare against K-means + ScaNN, vanilla
//! ScaNN, HNSW and an IVF (FAISS-like) index on recall and measured query time. Every
//! series but HNSW runs the scan of a `PartitionIndex`, and HNSW the same distance kernel.
//!
//! Run with: `cargo run --release --example scann_pipeline`

use neural_partitioner::core::{train_partitioner, UspConfig};
use usp_baselines::KMeansPartitioner;
use usp_data::{exact_knn, synthetic, KnnMatrix};
use usp_graph::{Hnsw, HnswConfig};
use usp_index::partitioner::RoundRobinPartitioner;
use usp_index::PartitionIndex;
use usp_linalg::Distance;
use usp_quant::{KMeansConfig, ScannConfig};

const DIST: Distance = Distance::SquaredEuclidean;
const K: usize = 10;

fn measure(
    name: &str,
    queries: &usp_linalg::Matrix,
    truth: &[Vec<usize>],
    search: impl Fn(&[f32]) -> Vec<usize>,
) {
    // The clock covers the searches only; recall is scored after it.
    let start = std::time::Instant::now();
    let answers: Vec<Vec<usize>> = (0..queries.rows())
        .map(|qi| search(queries.row(qi)))
        .collect();
    let elapsed_us = start.elapsed().as_micros() as f64;
    println!(
        "{:<28} recall@10 = {:.3}   mean query time = {:>7.1} µs",
        name,
        usp_eval::recall_at_k(&answers, truth),
        elapsed_us / queries.rows() as f64
    );
}

fn main() {
    let split = synthetic::sift_like(8_300, 32, 55).split_queries(300);
    let data = split.base.points();
    let truth = exact_knn(data, &split.queries, K, DIST);
    println!(
        "workload: {} points x {} dims, {} queries\n",
        data.rows(),
        data.cols(),
        split.n_queries()
    );

    // Every ScaNN series is the compressed index this configuration builds over a
    // partition; they differ in the partition alone.
    let scann_config = ScannConfig {
        rerank_size: 80,
        ..ScannConfig::default()
    };

    // USP + ScaNN: partition first, then quantized search inside the candidate set.
    let knn = KnnMatrix::build(data, 10, DIST);
    let usp = train_partitioner(
        data,
        &knn,
        &UspConfig {
            epochs: 40,
            ..UspConfig::paper_default(16)
        },
        None,
    );
    let usp_scann = scann_config.build_index(usp, data);
    measure("USP + ScaNN (ours)", &split.queries, &truth, |q| {
        usp_scann.search(q, K, 2).ids
    });

    // K-means + ScaNN.
    let km_scann = scann_config.build_index(KMeansPartitioner::fit(data, 16, 3), data);
    measure("K-means + ScaNN", &split.queries, &truth, |q| {
        km_scann.search(q, K, 2).ids
    });

    // Vanilla ScaNN: quantized scan of the whole dataset, held in one bin.
    let scann = scann_config.build_index(RoundRobinPartitioner::new(1), data);
    measure("Vanilla ScaNN", &split.queries, &truth, |q| {
        scann.scan_bins(q, &[0], K, None).ids
    });

    // HNSW.
    let hnsw = Hnsw::build(
        data,
        HnswConfig {
            m: 16,
            ef_construction: 100,
            distance: DIST,
            seed: 3,
        },
    );
    measure("HNSW (ef=64)", &split.queries, &truth, |q| {
        hnsw.search(q, K, 64).0
    });

    // IVF-Flat (FAISS-like): a coarse k-means quantizer over inverted lists is the
    // K-means partition index, scanned exactly.
    let coarse = KMeansConfig {
        max_iters: 25,
        ..KMeansConfig::new(16)
    };
    let ivf = PartitionIndex::build(
        KMeansPartitioner::fit_with_config(data, &coarse),
        data,
        DIST,
    );
    measure("FAISS-like IVF (nprobe=2)", &split.queries, &truth, |q| {
        ivf.search(q, K, 2).ids
    });

    println!(
        "\n(The partition + quantization pipelines answer queries from a small candidate set;"
    );
    println!(
        " the unsupervised partition needs fewer candidates than K-means for the same recall.)"
    );
}
