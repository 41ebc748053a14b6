//! Integration tests over the baseline implementations: every comparator of the paper's
//! evaluation must build, index, and answer queries through the shared abstractions, and
//! the qualitative relationships the paper relies on must hold at small scale.

use usp_baselines::{
    BinaryPartitionTree, BoostedForestStrategy, CrossPolytopeLsh, HyperplaneLsh, KMeansPartitioner,
    NeuralLsh, NeuralLshConfig, RegressionLshSplit, TreeConfig,
};
use usp_data::{exact_knn, synthetic, KnnMatrix};
use usp_graph::{Hnsw, HnswConfig};
use usp_index::{PartitionIndex, Partitioner, SearchResult};
use usp_linalg::Distance;
use usp_quant::{KMeansConfig, ScannConfig};

const DIST: Distance = Distance::SquaredEuclidean;

fn recall(results: &[Vec<usize>], truth: &[Vec<usize>]) -> f64 {
    results
        .iter()
        .zip(truth)
        .map(|(r, t)| usp_data::ground_truth::knn_accuracy(r, t))
        .sum::<f64>()
        / results.len() as f64
}

#[test]
fn every_partitioning_baseline_indexes_and_searches() {
    let split = synthetic::sift_like(1200, 12, 6).split_queries(50);
    let data = split.base.points();
    let knn = KnnMatrix::build(data, 5, DIST);
    let truth = exact_knn(data, &split.queries, 10, DIST);

    let baselines: Vec<(String, Box<dyn Partitioner>)> = vec![
        (
            "kmeans".into(),
            Box::new(KMeansPartitioner::fit(data, 8, 1)),
        ),
        (
            "cross-polytope".into(),
            Box::new(CrossPolytopeLsh::fit(data, 8, 2)),
        ),
        (
            "hyperplane-lsh".into(),
            Box::new(HyperplaneLsh::fit(data, 3, 3)),
        ),
        (
            "kd-tree".into(),
            Box::new(BinaryPartitionTree::kd(data, &TreeConfig::new(3))),
        ),
        (
            "pca-tree".into(),
            Box::new(BinaryPartitionTree::pca(data, &TreeConfig::new(3))),
        ),
        (
            "rp-tree".into(),
            Box::new(BinaryPartitionTree::random_projection(
                data,
                &TreeConfig::new(3),
            )),
        ),
        (
            "2-means-tree".into(),
            Box::new(BinaryPartitionTree::two_means(data, &TreeConfig::new(3))),
        ),
        (
            "boosted-forest".into(),
            Box::new(BinaryPartitionTree::build(
                data,
                &TreeConfig::new(3),
                &BoostedForestStrategy::new(knn.clone(), 8),
            )),
        ),
        (
            "regression-lsh".into(),
            Box::new(BinaryPartitionTree::build(
                data,
                &TreeConfig::new(3),
                &RegressionLshSplit {
                    epochs: 20,
                    ..Default::default()
                },
            )),
        ),
    ];

    for (name, partitioner) in baselines {
        let bins = partitioner.num_bins();
        let index = PartitionIndex::build(partitioner, data, DIST);
        let stats = index.balance();
        assert_eq!(stats.total, data.rows(), "{name}: lookup table lost points");

        // Probing all bins is exhaustive search: recall must be ~1.
        let results: Vec<Vec<usize>> = (0..split.queries.rows())
            .map(|qi| index.search(split.queries.row(qi), 10, bins).ids)
            .collect();
        let r = recall(&results, &truth);
        assert!(r > 0.99, "{name}: exhaustive probe recall {r}");

        // Probing a single bin must scan fewer candidates than the whole dataset.
        let single: SearchResult = index.search(split.queries.row(0), 10, 1);
        assert!(
            single.candidates_scanned < data.rows(),
            "{name}: single probe scanned everything"
        );
    }
}

#[test]
fn neural_lsh_beats_data_oblivious_lsh_at_matched_budget() {
    let split = synthetic::sift_like(1500, 16, 8).split_queries(60);
    let data = split.base.points();
    let knn = KnnMatrix::build(data, 8, DIST);
    let truth = exact_knn(data, &split.queries, 10, DIST);

    let nlsh = NeuralLsh::fit(
        data,
        &knn,
        &NeuralLshConfig {
            epochs: 30,
            ..NeuralLshConfig::small(8)
        },
    );
    let labels = nlsh.labels().to_vec();
    let nlsh_index = PartitionIndex::from_assignments(nlsh, data, labels, DIST);
    let lsh_index = PartitionIndex::build(CrossPolytopeLsh::fit(data, 8, 9), data, DIST);

    let run = |index: &dyn Fn(&[f32]) -> SearchResult| -> f64 {
        let results: Vec<Vec<usize>> = (0..split.queries.rows())
            .map(|qi| index(split.queries.row(qi)).ids)
            .collect();
        recall(&results, &truth)
    };
    let nlsh_recall = run(&|q| nlsh_index.search(q, 10, 2));
    let lsh_recall = run(&|q| lsh_index.search(q, 10, 2));
    assert!(
        nlsh_recall > lsh_recall,
        "Neural LSH ({nlsh_recall:.3}) should beat cross-polytope LSH ({lsh_recall:.3})"
    );
}

#[test]
fn graph_and_quantization_baselines_reach_high_recall() {
    let split = synthetic::sift_like(1500, 16, 10).split_queries(50);
    let data = split.base.points();
    let truth = exact_knn(data, &split.queries, 10, DIST);

    // HNSW with a generous beam.
    let hnsw = Hnsw::build(
        data,
        HnswConfig {
            m: 12,
            ef_construction: 80,
            distance: DIST,
            seed: 1,
        },
    );
    let hnsw_results: Vec<Vec<usize>> = (0..split.queries.rows())
        .map(|qi| hnsw.search(split.queries.row(qi), 10, 96).0)
        .collect();
    assert!(recall(&hnsw_results, &truth) > 0.9, "HNSW recall too low");

    // IVF-Flat (a K-means partition index) probing half the lists.
    let coarse = KMeansConfig {
        max_iters: 25,
        ..KMeansConfig::new(16)
    };
    let ivf = PartitionIndex::build(
        KMeansPartitioner::fit_with_config(data, &coarse),
        data,
        DIST,
    );
    let ivf_results: Vec<Vec<usize>> = (0..split.queries.rows())
        .map(|qi| ivf.search(split.queries.row(qi), 10, 8).ids)
        .collect();
    assert!(recall(&ivf_results, &truth) > 0.9, "IVF recall too low");

    // ScaNN-like quantized scan of one bin holding every point, with exact re-ranking.
    let scann = ScannConfig {
        rerank_size: 100,
        ..ScannConfig::default()
    }
    .build_index(usp_index::partitioner::RoundRobinPartitioner::new(1), data);
    let scann_results: Vec<Vec<usize>> = (0..split.queries.rows())
        .map(|qi| scann.scan_bins(split.queries.row(qi), &[0], 10, None).ids)
        .collect();
    assert!(
        recall(&scann_results, &truth) > 0.8,
        "quantized search recall too low"
    );
}

#[test]
fn kmeans_partition_is_more_balanced_than_single_lsh_table_on_skewed_data() {
    // A dataset with one dominant cluster: K-means adapts its centroids, a random
    // hyperplane LSH table does not adapt at all. Both must still index every point.
    let ds = synthetic::MixtureSpec {
        n: 1200,
        dim: 8,
        n_clusters: 3,
        center_spread: 4.0,
        cluster_std: 0.8,
        anisotropy: 0.5,
        seed: 12,
    }
    .generate("skewed");
    let data = ds.points();
    let km = PartitionIndex::build(KMeansPartitioner::fit(data, 8, 1), data, DIST);
    let lsh = PartitionIndex::build(HyperplaneLsh::fit(data, 3, 2), data, DIST);
    assert_eq!(km.balance().total, 1200);
    assert_eq!(lsh.balance().total, 1200);
    assert!(km.balance().empty_bins <= lsh.balance().empty_bins + 1);
}
