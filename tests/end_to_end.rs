//! Cross-crate integration tests: dataset generation → ground truth → training → index →
//! online queries, exercised through the root crate's re-exported public API exactly as a
//! downstream user would.

use neural_partitioner::core::{train_partitioner, UspConfig, UspEnsemble};
use usp_data::{exact_knn, synthetic, KnnMatrix};
use usp_index::{PartitionIndex, Partitioner};
use usp_linalg::Distance;
use usp_quant::ScannConfig;

const DIST: Distance = Distance::SquaredEuclidean;

fn workload(n: usize, dim: usize, queries: usize, seed: u64) -> usp_data::SplitDataset {
    synthetic::sift_like(n + queries, dim, seed).split_queries(queries)
}

fn mean_recall(results: &[Vec<usize>], truth: &[Vec<usize>]) -> f64 {
    results
        .iter()
        .zip(truth)
        .map(|(r, t)| usp_data::ground_truth::knn_accuracy(r, t))
        .sum::<f64>()
        / results.len() as f64
}

#[test]
fn offline_and_online_phases_work_end_to_end() {
    let split = workload(1500, 16, 80, 1);
    let data = split.base.points();

    // Offline phase: the k'-NN matrix is the only preprocessing (Algorithm 1 step 1).
    let knn = KnnMatrix::build(data, 10, DIST);
    assert_eq!(knn.len(), data.rows());

    // Train the partition with the unsupervised loss (steps 2-3).
    let cfg = UspConfig {
        knn_k: 10,
        epochs: 25,
        ..UspConfig::fast(8)
    };
    let trained = train_partitioner(data, &knn, &cfg, None);
    let index = PartitionIndex::build(trained, data, DIST);
    assert_eq!(index.num_bins(), 8);
    assert!((0..data.rows()).all(|id| index.bin_of(id).is_some()));

    // Online phase: recall grows with the number of probed bins and reaches ~1.0 when all
    // bins are probed (the candidate set is then the whole dataset).
    let truth = exact_knn(data, &split.queries, 10, DIST);
    let run = |probes: usize| -> (f64, f64) {
        let mut results = Vec::new();
        let mut candidates = 0usize;
        for qi in 0..split.queries.rows() {
            let res = index.search(split.queries.row(qi), 10, probes);
            candidates += res.candidates_scanned;
            results.push(res.ids);
        }
        (
            mean_recall(&results, &truth),
            candidates as f64 / split.queries.rows() as f64,
        )
    };
    let (recall_1, cand_1) = run(1);
    let (recall_all, cand_all) = run(8);
    assert!(
        recall_all > 0.99,
        "probing every bin must be exact, got {recall_all}"
    );
    assert!((cand_all - data.rows() as f64).abs() < 1e-6);
    assert!(
        recall_1 > 0.3,
        "single-probe recall {recall_1} too low for clustered data"
    );
    assert!(cand_1 < cand_all, "single probe must scan fewer candidates");
}

#[test]
fn ensemble_improves_over_single_model_at_equal_probes() {
    let split = workload(1500, 16, 80, 2);
    let data = split.base.points();
    let knn = KnnMatrix::build(data, 10, DIST);
    let truth = exact_knn(data, &split.queries, 10, DIST);
    let cfg = UspConfig {
        knn_k: 10,
        epochs: 20,
        ..UspConfig::fast(8)
    };

    let single = UspEnsemble::train(data, &knn, &cfg, 1, DIST);
    let triple = UspEnsemble::train(data, &knn, &cfg, 3, DIST);

    let recall = |ens: &UspEnsemble, probes: usize| -> f64 {
        let results: Vec<Vec<usize>> = (0..split.queries.rows())
            .map(|qi| {
                ens.search_with_probes(split.queries.row(qi), 10, probes)
                    .ids
            })
            .collect();
        mean_recall(&results, &truth)
    };
    // The ensemble picks the most confident of three complementary partitions per query;
    // it must not hurt, and usually helps (the paper reports up to ~10% at 16 bins).
    let r1 = recall(&single, 2);
    let r3 = recall(&triple, 2);
    assert!(
        r3 + 0.02 >= r1,
        "ensemble recall {r3} clearly worse than single-model {r1}"
    );
}

#[test]
fn learned_partition_beats_data_oblivious_lsh() {
    let split = workload(1600, 16, 80, 3);
    let data = split.base.points();
    let knn = KnnMatrix::build(data, 10, DIST);
    let truth = exact_knn(data, &split.queries, 10, DIST);

    let cfg = UspConfig {
        knn_k: 10,
        epochs: 25,
        ..UspConfig::fast(16)
    };
    let usp_index = PartitionIndex::build(train_partitioner(data, &knn, &cfg, None), data, DIST);
    let lsh_index = usp_index::PartitionIndex::build(
        usp_baselines::CrossPolytopeLsh::fit(data, 16, 5),
        data,
        DIST,
    );

    // Compare recall at a roughly matched candidate budget (2 probed bins each; both
    // partitions are roughly balanced so the budgets are comparable).
    let recall = |index: &dyn Fn(&[f32]) -> usp_index::SearchResult| -> f64 {
        let results: Vec<Vec<usize>> = (0..split.queries.rows())
            .map(|qi| index(split.queries.row(qi)).ids)
            .collect();
        mean_recall(&results, &truth)
    };
    let usp_recall = recall(&|q| usp_index.search(q, 10, 2));
    let lsh_recall = recall(&|q| lsh_index.search(q, 10, 2));
    assert!(
        usp_recall > lsh_recall,
        "learned partition ({usp_recall:.3}) should beat cross-polytope LSH ({lsh_recall:.3}) on clustered data"
    );
}

#[test]
fn pipeline_composition_with_quantizer_preserves_most_recall() {
    let split = workload(1800, 16, 60, 4);
    let data = split.base.points();
    let knn = KnnMatrix::build(data, 10, DIST);
    let truth = exact_knn(data, &split.queries, 10, DIST);
    let cfg = UspConfig {
        knn_k: 10,
        epochs: 20,
        ..UspConfig::fast(8)
    };
    let partitioner = train_partitioner(data, &knn, &cfg, None);

    // Build the exact index first, then the quantized pipeline from the same partitioner
    // family (fresh training with the same seed gives the same model).
    let exact_index = PartitionIndex::build(train_partitioner(data, &knn, &cfg, None), data, DIST);
    let pipeline = ScannConfig::default().build_index(partitioner, data);

    let mut exact_recall = 0.0;
    let mut quant_recall = 0.0;
    for qi in 0..split.queries.rows() {
        let e = exact_index.search(split.queries.row(qi), 10, 4);
        let qv = pipeline.search(split.queries.row(qi), 10, 4);
        exact_recall += usp_data::ground_truth::knn_accuracy(&e.ids, &truth[qi]);
        quant_recall += usp_data::ground_truth::knn_accuracy(&qv.ids, &truth[qi]);
    }
    let n = split.queries.rows() as f64;
    let (exact_recall, quant_recall) = (exact_recall / n, quant_recall / n);
    assert!(
        quant_recall > exact_recall * 0.75,
        "quantized pipeline recall {quant_recall:.3} lost too much vs exact re-ranking {exact_recall:.3}"
    );
}

#[test]
fn pipeline_restricts_search_to_partition_candidates() {
    let split = synthetic::sift_like(900, 16, 21).split_queries(40);
    let data = split.base.points();
    let knn = KnnMatrix::build(data, 5, DIST);
    let cfg = UspConfig {
        knn_k: 5,
        epochs: 20,
        ..UspConfig::fast(8)
    };
    let partitioner = train_partitioner(data, &knn, &cfg, None);
    let pipeline = ScannConfig::default().build_index(partitioner, data);

    let truth = exact_knn(data, &split.queries, 10, DIST);
    let mut results = Vec::new();
    let (mut scanned, mut partition_candidates) = (0usize, 0usize);
    for qi in 0..split.queries.rows() {
        let res = pipeline.search(split.queries.row(qi), 10, 2);
        scanned += res.candidates_scanned;
        partition_candidates += res.compressed_scanned;
        results.push(res.ids);
    }
    let recall = mean_recall(&results, &truth);
    let mean_exact = scanned as f64 / split.queries.rows() as f64;
    // The quantized shortlist keeps the exact re-ranking cost far below the dataset
    // size while retaining good recall on clustered data.
    assert!(
        mean_exact <= 100.0 + 1e-9,
        "exact evaluations per query {mean_exact}"
    );
    assert!(recall > 0.5, "pipeline recall {recall}");
    assert!(partition_candidates > 0);
}

#[test]
fn more_probes_improve_or_maintain_pipeline_recall() {
    let split = synthetic::sift_like(600, 8, 22).split_queries(30);
    let data = split.base.points();
    let knn = KnnMatrix::build(data, 5, DIST);
    let cfg = UspConfig {
        knn_k: 5,
        epochs: 15,
        ..UspConfig::fast(8)
    };
    let partitioner = train_partitioner(data, &knn, &cfg, None);
    let pipeline = ScannConfig::default().build_index(partitioner, data);
    let truth = exact_knn(data, &split.queries, 10, DIST);
    let recall = |probes: usize| {
        let results: Vec<Vec<usize>> = (0..split.queries.rows())
            .map(|qi| pipeline.search(split.queries.row(qi), 10, probes).ids)
            .collect();
        mean_recall(&results, &truth)
    };
    assert!(recall(8) >= recall(1) - 1e-9);
}

#[test]
fn learned_partition_beats_random_candidates_at_equal_budget() {
    let split = workload(1500, 16, 80, 6);
    let data = split.base.points();
    let knn = KnnMatrix::build(data, 10, DIST);
    let truth = exact_knn(data, &split.queries, 10, DIST);

    // Full vertical slice: usp-core training -> PartitionIndex -> online search.
    let cfg = UspConfig {
        knn_k: 10,
        epochs: 25,
        ..UspConfig::fast(8)
    };
    let index = PartitionIndex::build(train_partitioner(data, &knn, &cfg, None), data, DIST);

    // Baseline: re-rank a uniformly random candidate set of the same size the index
    // scanned for that query. Any partition that learned anything must beat it.
    use rand::{Rng, SeedableRng};
    let mut rng = rand::rngs::StdRng::seed_from_u64(99);
    let mut usp_recall = 0.0;
    let mut random_recall = 0.0;
    for qi in 0..split.queries.rows() {
        let res = index.search(split.queries.row(qi), 10, 1);
        usp_recall += usp_data::ground_truth::knn_accuracy(&res.ids, &truth[qi]);

        let budget = res.candidates_scanned.max(10);
        let candidates: Vec<u32> = (0..budget)
            .map(|_| rng.random_range(0..data.rows()) as u32)
            .collect();
        let random_ids =
            usp_index::rerank::rerank(data, split.queries.row(qi), &candidates, 10, DIST);
        random_recall += usp_data::ground_truth::knn_accuracy(&random_ids, &truth[qi]);
    }
    let n = split.queries.rows() as f64;
    let (usp_recall, random_recall) = (usp_recall / n, random_recall / n);
    assert!(
        usp_recall > random_recall,
        "recall@10 of the learned partition ({usp_recall:.3}) must beat re-ranking the same \
         number of uniformly random candidates ({random_recall:.3})"
    );
}

#[test]
fn partitioner_trait_objects_are_interchangeable() {
    let split = workload(900, 8, 40, 5);
    let data = split.base.points();
    let knn = KnnMatrix::build(data, 5, DIST);
    let usp = train_partitioner(
        data,
        &knn,
        &UspConfig {
            knn_k: 5,
            epochs: 10,
            ..UspConfig::fast(4)
        },
        None,
    );
    let kmeans = usp_baselines::KMeansPartitioner::fit(data, 4, 1);

    let methods: Vec<Box<dyn Partitioner>> = vec![Box::new(usp), Box::new(kmeans)];
    for m in &methods {
        assert_eq!(m.num_bins(), 4);
        let scores = m.bin_scores(data.row(0));
        assert_eq!(scores.len(), 4);
        let ranked = m.rank_bins(data.row(0), 4);
        assert_eq!(ranked[0], m.assign(data.row(0)));
    }
}
