//! Reproductions of every table and figure of the paper's evaluation (§5).
//!
//! Each function trains the relevant methods at the requested [`Scale`] and returns an
//! [`ExperimentReport`] with the same rows/series the paper reports. Absolute numbers
//! differ from the paper (synthetic stand-in datasets, CPU training — see DESIGN.md §1),
//! but the comparisons the paper draws are preserved: who wins, roughly by how much, and
//! where the curves cross.

use usp_baselines::{
    BinaryPartitionTree, BoostedForestStrategy, CrossPolytopeLsh, KMeansPartitioner, NeuralLsh,
    NeuralLshConfig, RegressionLshSplit, TreeConfig,
};
use usp_cluster::{
    adjusted_rand_index, dbscan, normalized_mutual_information, purity, spectral_clustering,
    DbscanConfig, SpectralConfig,
};
use usp_core::{train_partitioner, HierarchicalPartitioner, ModelKind, UspConfig, UspEnsemble};
use usp_data::{exact_knn, synthetic, KnnMatrix, SplitDataset};
use usp_graph::{Hnsw, HnswConfig};
use usp_index::partitioner::RoundRobinPartitioner;
use usp_index::{PartitionIndex, Partitioner, SearchResult};
use usp_linalg::{Distance, Matrix};
use usp_quant::{KMeansConfig, ScannConfig};

use crate::recall::{
    candidates_at_recall, default_probe_ladder, recall_at_k, sweep_probes, SweepPoint,
};
use crate::report::{ExperimentReport, Series};
use crate::scale::Scale;

const DIST: Distance = Distance::SquaredEuclidean;
const K: usize = 10; // the paper reports 10-NN accuracy throughout

fn truth_for(split: &SplitDataset) -> Vec<Vec<usize>> {
    exact_knn(split.base.points(), &split.queries, K, DIST)
}

fn usp_config(scale: &Scale, bins: usize, eta: f32, seed: u64) -> UspConfig {
    UspConfig {
        bins,
        knn_k: 10,
        eta,
        epochs: scale.epochs,
        batch_size: 256,
        learning_rate: 3e-3,
        model: ModelKind::Mlp {
            hidden: vec![64],
            dropout: 0.1,
        },
        soft_targets: true,
        seed,
    }
}

/// One figure panel: recall-vs-candidates series over one query set and probe ladder.
struct Panel<'a> {
    split: &'a SplitDataset,
    truth: &'a [Vec<usize>],
    probes: Vec<usize>,
    series: Vec<Series>,
}

impl<'a> Panel<'a> {
    fn new(split: &'a SplitDataset, truth: &'a [Vec<usize>], bins: usize) -> Self {
        Self {
            split,
            truth,
            probes: default_probe_ladder(bins),
            series: Vec::new(),
        }
    }

    /// Sweeps `search` over the probe ladder and appends it as series `name`.
    fn sweep(&mut self, name: &str, search: impl Fn(&[f32], usize) -> SearchResult + Sync) {
        let points = sweep_probes(&self.split.queries, self.truth, &self.probes, search);
        self.series.push(Series {
            name: name.into(),
            points,
        });
    }

    fn index<P: Partitioner>(&mut self, name: &str, index: &PartitionIndex<P>) {
        self.sweep(name, |q, p| index.search(q, K, p));
    }

    /// Indexes the base points under `partitioner` and sweeps the index.
    fn partition(&mut self, name: &str, partitioner: impl Partitioner) {
        let index = PartitionIndex::build(partitioner, self.split.base.points(), DIST);
        self.index(name, &index);
    }
}

/// Neural LSH (Dong et al.) over `bins` bins: the graph-partition labels it is trained
/// on are its bins, so the index takes them as they are.
fn neural_lsh_index(
    scale: &Scale,
    data: &Matrix,
    knn: &KnnMatrix,
    bins: usize,
) -> PartitionIndex<NeuralLsh> {
    let config = NeuralLshConfig {
        epochs: scale.epochs,
        ..NeuralLshConfig::small(bins)
    };
    let nlsh = NeuralLsh::fit(data, knn, &config);
    let labels = nlsh.labels().to_vec();
    PartitionIndex::from_assignments(nlsh, data, labels, DIST)
}

/// Figure 5 — comparison with space-partitioning methods (neural-network model).
///
/// Four panels: SIFT/MNIST × 16/256 bins. Methods: Ours (ensemble of 3), Neural LSH,
/// K-means, Cross-polytope LSH. The 256-bin configuration uses hierarchical 16×16
/// partitioning exactly as §5.4.1 describes.
pub fn figure5(scale: &Scale) -> ExperimentReport {
    let mut report = ExperimentReport::new(
        "fig5_partitioning",
        "10-NN accuracy vs candidate-set size (space-partitioning methods)",
    );
    report.add_note(format!(
        "scale={} (sift {}x{}, mnist {}x{}, {} queries)",
        scale.name, scale.sift_n, scale.sift_dim, scale.mnist_n, scale.mnist_dim, scale.queries
    ));

    for (dataset_name, split, eta16, eta256) in [
        ("SIFT-like", scale.sift_like(101), 7.0f32, 10.0f32),
        ("MNIST-like", scale.mnist_like(202), 7.0, 30.0),
    ] {
        let truth = truth_for(&split);
        let data = split.base.points();
        let knn = KnnMatrix::build(data, 10, DIST);

        // Each panel's bin count with its K-means and cross-polytope LSH seeds.
        for (bins, kmeans_seed, lsh_seed) in [(16usize, 3, 4), (256, 9, 11)] {
            let mut panel = Panel::new(&split, &truth, bins);
            if bins == 16 {
                for (name, seed, members) in [
                    ("Ours (ensemble of 3)", 1, 3),
                    ("Ours (single model)", 5, 1),
                ] {
                    let cfg = usp_config(scale, bins, eta16, seed);
                    let ens = UspEnsemble::train(data, &knn, &cfg, members, DIST);
                    panel.sweep(name, |q, p| ens.search_with_probes(q, K, p));
                }
            } else {
                let cfg = usp_config(scale, 16, eta256, 7);
                let hier = HierarchicalPartitioner::train(data, &cfg, &[16, 16], DIST);
                panel.partition("Ours (hierarchical 16x16)", hier);
            }
            panel.index("Neural LSH", &neural_lsh_index(scale, data, &knn, bins));
            panel.partition("K-means", KMeansPartitioner::fit(data, bins, kmeans_seed));
            panel.partition(
                "Cross-polytope LSH",
                CrossPolytopeLsh::fit(data, bins, lsh_seed),
            );
            report.add_panel(format!("{dataset_name}, {bins} bins"), panel.series);
        }
    }
    report
}

/// Figure 6 — comparison with binary hyperplane partition trees (logistic-regression
/// model), depth `scale.tree_depth` (the paper uses depth 10 = 1024 bins).
pub fn figure6(scale: &Scale) -> ExperimentReport {
    let depth = scale.tree_depth;
    let bins = 1usize << depth;
    let mut report = ExperimentReport::new(
        "fig6_trees",
        "10-NN accuracy vs candidate-set size (binary hyperplane trees)",
    );
    report.add_note(format!(
        "scale={}, tree depth {} ({} bins; the paper uses depth 10)",
        scale.name, depth, bins
    ));

    for (dataset_name, split) in [
        ("SIFT-like", scale.sift_like(303)),
        ("MNIST-like", scale.mnist_like(404)),
    ] {
        let truth = truth_for(&split);
        let data = split.base.points();
        let tree = TreeConfig::new(depth);
        // Ours: hierarchical binary logistic models trained with the unsupervised loss.
        let ours = UspConfig {
            epochs: (scale.epochs / 2).max(10),
            batch_size: 256,
            learning_rate: 5e-3,
            ..UspConfig::logistic(2)
        };
        // Regression LSH splits on graph-partition-supervised logistic models; the
        // Boosted Search Forest is one neighbour-preserving tree at the same depth.
        let knn = KnnMatrix::build(data, 10, DIST);
        let partitioners: [(&str, Box<dyn Partitioner>); 7] = [
            (
                "Ours (logistic regression)",
                Box::new(HierarchicalPartitioner::train(
                    data,
                    &ours,
                    &vec![2; depth],
                    DIST,
                )),
            ),
            (
                "Regression LSH",
                Box::new(BinaryPartitionTree::build(
                    data,
                    &tree,
                    &RegressionLshSplit::default(),
                )),
            ),
            (
                "2-means tree",
                Box::new(BinaryPartitionTree::two_means(data, &tree)),
            ),
            ("PCA tree", Box::new(BinaryPartitionTree::pca(data, &tree))),
            (
                "Random projection tree",
                Box::new(BinaryPartitionTree::random_projection(data, &tree)),
            ),
            (
                "Learned KD-tree",
                Box::new(BinaryPartitionTree::kd(data, &tree)),
            ),
            (
                "Boosted Search Forest",
                Box::new(BinaryPartitionTree::build(
                    data,
                    &tree,
                    &BoostedForestStrategy::new(knn, 12),
                )),
            ),
        ];
        let mut panel = Panel::new(&split, &truth, bins);
        for (name, partitioner) in partitioners {
            panel.partition(name, partitioner);
        }
        report.add_panel(format!("{dataset_name}, {bins} bins"), panel.series);
    }
    report
}

/// Figure 7 — end-to-end ANNS: USP + ScaNN vs K-means + ScaNN vs vanilla ScaNN vs HNSW vs
/// IVF (FAISS stand-in). The x-axis is the mean wall-clock query time in microseconds
/// (the paper plots recall against time).
pub fn figure7(scale: &Scale) -> ExperimentReport {
    let mut report = ExperimentReport::new(
        "fig7_scann_pipeline",
        "10-NN accuracy vs mean query time (end-to-end ANNS)",
    );
    report.add_note(format!(
        "scale={}; x-axis (mean_candidates column) is mean query time in microseconds",
        scale.name
    ));

    for (dataset_name, split) in [
        ("SIFT-like", scale.sift_like(505)),
        ("MNIST-like", scale.mnist_like(606)),
    ] {
        let truth = truth_for(&split);
        let data = split.base.points();
        let knn = KnnMatrix::build(data, 10, DIST);
        let bins = 16usize;
        let mut series = Vec::new();

        // The clock covers the searches only: answers are collected inside it and
        // scored against the ground truth after it.
        let timed_sweep = |label: &str,
                           knobs: &[usize],
                           search: Box<dyn Fn(&[f32], usize) -> Vec<usize>>|
         -> Series {
            let queries = &split.queries;
            let points = knobs
                .iter()
                .map(|&knob| {
                    let start = std::time::Instant::now();
                    let answers: Vec<Vec<usize>> = (0..queries.rows())
                        .map(|qi| search(queries.row(qi), knob))
                        .collect();
                    let elapsed_us = start.elapsed().as_micros() as f64 / queries.rows() as f64;
                    SweepPoint {
                        probes: knob,
                        mean_candidates: elapsed_us,
                        recall: recall_at_k(&answers, &truth),
                    }
                })
                .collect();
            Series {
                name: label.into(),
                points,
            }
        };

        // USP + ScaNN and K-means + ScaNN: the partition's compressed index.
        let pipeline_config = ScannConfig {
            rerank_size: 64,
            ..ScannConfig::default()
        };
        let usp = train_partitioner(data, &knn, &usp_config(scale, bins, 7.0, 13), None);
        let usp_scann = pipeline_config.build_index(usp, data);
        series.push(timed_sweep(
            "USP + ScaNN (ours)",
            &[1, 2, 4, 8],
            Box::new(move |q, probes| usp_scann.search(q, K, probes).ids),
        ));
        let km_scann = pipeline_config.build_index(KMeansPartitioner::fit(data, bins, 17), data);
        series.push(timed_sweep(
            "K-means + ScaNN",
            &[1, 2, 4, 8],
            Box::new(move |q, probes| km_scann.search(q, K, probes).ids),
        ));

        // Vanilla ScaNN: quantized scan over the whole dataset, one bin; the knob is the
        // exact re-ranking budget, a per-query argument of the one index.
        let scann = ScannConfig::default().build_index(RoundRobinPartitioner::new(1), data);
        series.push(timed_sweep(
            "Vanilla ScaNN",
            &[32, 64, 128, 256],
            Box::new(move |q, rerank| scann.scan_bins(q, &[0], K, Some(rerank)).ids),
        ));

        // HNSW with an ef sweep.
        let hnsw = Hnsw::build(
            data,
            HnswConfig {
                m: 16,
                ef_construction: 100,
                distance: DIST,
                seed: 3,
            },
        );
        series.push(timed_sweep(
            "HNSW",
            &[16, 32, 64, 128],
            Box::new(move |q, ef| hnsw.search(q, K, ef).0),
        ));

        // IVF-Flat (FAISS stand-in) with an nprobe sweep: a coarse k-means quantizer
        // over inverted lists is the K-means partition index, scanned exactly.
        let coarse = KMeansConfig {
            k: bins,
            max_iters: 25,
            tol: 1e-4,
            seed: 5,
        };
        let ivf = PartitionIndex::build(
            KMeansPartitioner::fit_with_config(data, &coarse),
            data,
            DIST,
        );
        series.push(timed_sweep(
            "FAISS (IVF-Flat)",
            &[1, 2, 4, 8],
            Box::new(move |q, nprobe| ivf.search(q, K, nprobe).ids),
        ));

        report.add_panel(dataset_name.to_string(), series);
    }
    report
}

/// Table 2 — learnable parameter counts when partitioning SIFT into 256 bins.
pub fn table2() -> ExperimentReport {
    let mut report = ExperimentReport::new(
        "table2_params",
        "Learnable parameters, 256 bins on SIFT (d = 128)",
    );
    let d = 128usize;
    let bins = 256usize;
    let mlp_params = |hidden: usize| {
        let config = usp_nn::MlpConfig {
            input_dim: d,
            hidden: vec![hidden],
            output_dim: bins,
            dropout: 0.1,
            batch_norm: true,
            seed: 1,
        };
        config.build().num_params().to_string()
    };
    // Neural LSH: one hidden layer of 512 units (plus batch-norm), as in the original.
    // Ours: one hidden layer of 128 units. K-means: the centroid coordinates.
    for (name, params, hidden) in [
        ("Neural LSH", mlp_params(512), "512"),
        ("Ours", mlp_params(128), "128"),
        ("K-means", (bins * d).to_string(), "-"),
    ] {
        report.add_row(
            name,
            vec![
                ("total parameters".into(), params),
                ("hidden layer size".into(), hidden.into()),
            ],
        );
    }
    report.add_note(
        "Paper reports ≈729k / 183k / 33k; exact counts depend on bias and batch-norm bookkeeping.",
    );
    report
}

/// Table 3 — offline training time and η per configuration.
pub fn table3(scale: &Scale) -> ExperimentReport {
    let mut report = ExperimentReport::new(
        "table3_training_time",
        "Offline training time and η per configuration",
    );
    report.add_note(format!("scale={}; times are wall-clock for a 3-model ensemble (16 bins) or one hierarchical 16x16 model (256 bins), on CPU", scale.name));

    // Each row's dataset, bins and η, with the paper's training minutes.
    for (name, mnist, bins, eta, paper_minutes) in [
        ("MNIST-like, 16 bins", true, 16usize, 7.0f32, 2),
        ("MNIST-like, 256 bins", true, 256, 30.0, 12),
        ("SIFT-like, 16 bins", false, 16, 7.0, 6),
        ("SIFT-like, 256 bins", false, 256, 10.0, 40),
    ] {
        let split = if mnist {
            scale.mnist_like(71)
        } else {
            scale.sift_like(72)
        };
        let data = split.base.points();
        let start = std::time::Instant::now();
        if bins == 16 {
            let knn = KnnMatrix::build(data, 10, DIST);
            let _ = UspEnsemble::train(data, &knn, &usp_config(scale, 16, eta, 31), 3, DIST);
        } else {
            let _ = HierarchicalPartitioner::train(
                data,
                &usp_config(scale, 16, eta, 32),
                &[16, 16],
                DIST,
            );
        }
        let seconds = start.elapsed().as_secs_f64();
        report.add_row(
            name,
            vec![
                ("bins".into(), bins.to_string()),
                ("eta".into(), format!("{eta}")),
                ("measured seconds".into(), format!("{seconds:.1}")),
                (
                    "paper minutes (1M/60k points, K80 GPU)".into(),
                    paper_minutes.to_string(),
                ),
            ],
        );
    }
    report
}

/// Table 4 — relative decrease in candidate-set size at 85% 10-NN accuracy (SIFT, 16 bins).
pub fn table4(scale: &Scale) -> ExperimentReport {
    let mut report = ExperimentReport::new(
        "table4_candidate_reduction",
        "Candidate-set size reduction at 85% 10-NN accuracy (SIFT-like, 16 bins)",
    );
    report.add_note(format!("scale={}", scale.name));
    let split = scale.sift_like(801);
    let truth = truth_for(&split);
    let data = split.base.points();
    let knn = KnnMatrix::build(data, 10, DIST);
    let bins = 16usize;

    let mut panel = Panel::new(&split, &truth, bins);
    let ens = UspEnsemble::train(data, &knn, &usp_config(scale, bins, 7.0, 41), 3, DIST);
    panel.sweep("Ours (ensemble of 3)", |q, p| {
        ens.search_with_probes(q, K, p)
    });
    panel.index("Neural LSH", &neural_lsh_index(scale, data, &knn, bins));
    panel.partition("K-means", KMeansPartitioner::fit(data, bins, 43));

    let target = 0.85;
    let fmt = |c: Option<f64>| {
        c.map(|v| format!("{v:.0}"))
            .unwrap_or_else(|| "not reached".into())
    };
    let ours_c = candidates_at_recall(&panel.series[0].points, target);
    for (i, series) in panel.series.iter().enumerate() {
        let c = candidates_at_recall(&series.points, target);
        let mut cells = vec![("candidates @85%".into(), fmt(c))];
        if i > 0 {
            let reduction = match (ours_c, c) {
                (Some(o), Some(b)) if b > 0.0 => format!("{:.0}%", (1.0 - o / b) * 100.0),
                _ => "n/a".into(),
            };
            cells.push(("decrease vs ours".into(), reduction));
        }
        report.add_row(&series.name, cells);
    }
    report.add_note("Paper reports 33% (vs Neural LSH) and 38% (vs K-means) reductions on SIFT.");
    report
}

/// Table 5 — clustering comparison on 2-D toy datasets (quantitative version: ARI/NMI/purity).
pub fn table5() -> ExperimentReport {
    let mut report = ExperimentReport::new(
        "table5_clustering",
        "Clustering quality on 2-D toy datasets (ARI / NMI / purity)",
    );
    report.add_note(
        "The paper shows this comparison visually; scores here are against the generative labels.",
    );

    let datasets: Vec<(&str, usp_data::Dataset, usize, DbscanConfig)> = vec![
        (
            "moons",
            synthetic::moons(400, 0.05, 7),
            2,
            DbscanConfig::new(0.2, 4),
        ),
        (
            "circles",
            synthetic::circles(400, 0.04, 0.45, 8),
            2,
            DbscanConfig::new(0.2, 4),
        ),
        (
            "classification (4 clusters)",
            synthetic::blobs(400, 2, 4, 1.0, 9),
            4,
            DbscanConfig::new(0.8, 4),
        ),
    ];

    for (name, ds, k, dbscan_cfg) in datasets {
        let data = ds.points();
        let truth = ds.labels().unwrap();
        let mut cells = Vec::new();

        // Ours: the unsupervised partitioner used as a clusterer with m = k bins.
        let knn = KnnMatrix::build(data, 10, DIST);
        let cfg = UspConfig {
            bins: k,
            knn_k: 10,
            eta: 2.0,
            epochs: 60,
            batch_size: 128,
            learning_rate: 5e-3,
            model: ModelKind::Mlp {
                hidden: vec![32],
                dropout: 0.0,
            },
            soft_targets: true,
            seed: 3,
        };
        let usp = train_partitioner(data, &knn, &cfg, None);
        let usp_labels: Vec<isize> = usp
            .model()
            .assign_batch(data)
            .iter()
            .map(|&l| l as isize)
            .collect();
        cells.push((
            "Ours ARI".into(),
            format!("{:.2}", adjusted_rand_index(&usp_labels, truth)),
        ));
        cells.push((
            "Ours NMI".into(),
            format!("{:.2}", normalized_mutual_information(&usp_labels, truth)),
        ));
        cells.push((
            "Ours purity".into(),
            format!("{:.2}", purity(&usp_labels, truth)),
        ));

        // DBSCAN.
        let db = dbscan(data, &dbscan_cfg);
        cells.push((
            "DBSCAN ARI".into(),
            format!("{:.2}", adjusted_rand_index(&db, truth)),
        ));

        // K-means.
        let km = usp_quant::KMeans::fit(data, &KMeansConfig::new(k));
        let km_labels: Vec<isize> = km.assign_all(data).iter().map(|&l| l as isize).collect();
        cells.push((
            "K-means ARI".into(),
            format!("{:.2}", adjusted_rand_index(&km_labels, truth)),
        ));

        // Spectral clustering.
        let sp = spectral_clustering(data, &SpectralConfig::new(k));
        let sp_labels: Vec<isize> = sp.iter().map(|&l| l as isize).collect();
        cells.push((
            "Spectral ARI".into(),
            format!("{:.2}", adjusted_rand_index(&sp_labels, truth)),
        ));

        report.add_row(name, cells);
    }
    report
}

/// §5.1.4 parameter ablations: k′, η, ensemble size, batch fraction, target type, model class.
pub fn ablations(scale: &Scale) -> ExperimentReport {
    let mut report = ExperimentReport::new(
        "ablation_params",
        "Parameter ablations (SIFT-like, 16 bins, recall@10 with 2 probed bins)",
    );
    report.add_note(format!("scale={}", scale.name));
    let split = scale.sift_like(901);
    let truth = truth_for(&split);
    let data = split.base.points();
    let bins = 16usize;

    // One row per trained configuration: recall with 2 probes and the bins' imbalance.
    let mut row = |name: String, cfg: UspConfig, knn: &KnnMatrix| {
        let index = train_partitioner(data, knn, &cfg, None).build_index(data, DIST);
        let pts = sweep_probes(&split.queries, &truth, &[2], |q, p| index.search(q, K, p));
        report.add_row(
            name,
            vec![
                (
                    "recall@10 (2 probes)".into(),
                    format!("{:.3}", pts[0].recall),
                ),
                (
                    "imbalance".into(),
                    format!("{:.2}", index.balance().imbalance),
                ),
            ],
        );
    };

    let knn10 = KnnMatrix::build(data, 10, DIST);
    let base_cfg = usp_config(scale, bins, 7.0, 77);

    // k' ablation.
    for knn_k in [5usize, 10, 20] {
        let cfg = UspConfig {
            knn_k,
            ..base_cfg.clone()
        };
        let knn = (knn_k != 10).then(|| KnnMatrix::build(data, knn_k, DIST));
        row(format!("k' = {knn_k}"), cfg, knn.as_ref().unwrap_or(&knn10));
    }

    // eta ablation.
    for eta in [0.0f32, 1.0, 7.0, 30.0] {
        let cfg = UspConfig {
            eta,
            ..base_cfg.clone()
        };
        row(format!("eta = {eta}"), cfg, &knn10);
    }

    // Target type ablation (soft neighbour distribution vs hard majority bin).
    for (name, soft_targets) in [("soft targets", true), ("hard targets", false)] {
        let cfg = UspConfig {
            soft_targets,
            ..base_cfg.clone()
        };
        row(name.into(), cfg, &knn10);
    }

    // Batch-size (fraction of dataset) ablation — §4.2.2 claims ≈4% per batch suffices.
    for batch_size in [64usize, 256, 1024] {
        let cfg = UspConfig {
            batch_size,
            ..base_cfg.clone()
        };
        let share = 100.0 * batch_size as f64 / data.rows() as f64;
        row(
            format!("batch = {batch_size} ({share:.1}% of n)"),
            cfg,
            &knn10,
        );
    }

    // Model class ablation.
    for (name, model) in [
        (
            "MLP (64 hidden)",
            ModelKind::Mlp {
                hidden: vec![64],
                dropout: 0.1,
            },
        ),
        ("logistic regression", ModelKind::Logistic),
    ] {
        let cfg = UspConfig {
            model,
            ..base_cfg.clone()
        };
        row(name.into(), cfg, &knn10);
    }

    // Ensemble size ablation.
    for e in [1usize, 2, 3] {
        let ens = UspEnsemble::train(data, &knn10, &base_cfg, e, DIST);
        let pts = sweep_probes(&split.queries, &truth, &[2], |q, p| {
            ens.search_with_probes(q, K, p)
        });
        report.add_row(
            format!("ensemble e = {e}"),
            vec![
                (
                    "recall@10 (2 probes)".into(),
                    format!("{:.3}", pts[0].recall),
                ),
                ("parameters".into(), ens.num_parameters().to_string()),
            ],
        );
    }

    report
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A tiny scale so the experiment plumbing can be exercised in unit tests.
    fn tiny() -> Scale {
        Scale {
            name: "tiny".into(),
            sift_n: 400,
            sift_dim: 8,
            mnist_n: 300,
            mnist_dim: 12,
            queries: 25,
            tree_depth: 3,
            epochs: 6,
        }
    }

    #[test]
    fn table2_reports_fewer_parameters_for_ours() {
        let report = table2();
        assert_eq!(report.rows.len(), 3);
        let get = |name: &str| -> usize {
            report
                .rows
                .iter()
                .find(|r| r.name == name)
                .and_then(|r| r.cells.first())
                .map(|(_, v)| v.parse().unwrap())
                .unwrap()
        };
        let nlsh = get("Neural LSH");
        let ours = get("Ours");
        let kmeans = get("K-means");
        assert!(
            ours < nlsh,
            "ours {ours} should use fewer parameters than Neural LSH {nlsh}"
        );
        assert!(kmeans < ours, "k-means {kmeans} should be smallest");
    }

    #[test]
    fn table5_shape() {
        let report = table5();
        assert_eq!(report.rows.len(), 3);
        assert!(report.render().contains("moons"));
    }

    #[test]
    fn figure5_tiny_runs_and_orders_methods_sanely() {
        let report = figure5(&tiny());
        assert_eq!(report.panels.len(), 4);
        for (panel, series) in &report.panels {
            assert!(series.len() >= 4, "panel {panel} missing methods");
            for s in series {
                assert!(!s.points.is_empty());
                // Probing all bins must give (near-)perfect recall for partition methods.
                let max_recall = s.points.iter().map(|p| p.recall).fold(0.0, f64::max);
                assert!(
                    max_recall > 0.95,
                    "{panel}/{}: max recall {max_recall}",
                    s.name
                );
            }
        }
    }

    #[test]
    fn figure7_tiny_runs_five_series_and_vanilla_scann_reaches_exact_at_full_budget() {
        // Both datasets no larger than vanilla ScaNN's last budget (256), so its last
        // point re-ranks every row exactly.
        let report = figure7(&Scale {
            sift_n: 256,
            mnist_n: 200,
            ..tiny()
        });
        assert_eq!(report.panels.len(), 2);
        for (panel, series) in &report.panels {
            let names: Vec<&str> = series.iter().map(|s| s.name.as_str()).collect();
            assert_eq!(
                names,
                [
                    "USP + ScaNN (ours)",
                    "K-means + ScaNN",
                    "Vanilla ScaNN",
                    "HNSW",
                    "FAISS (IVF-Flat)"
                ],
                "{panel}"
            );
            for s in series {
                assert_eq!(s.points.len(), 4, "{panel}/{}", s.name);
                for p in &s.points {
                    assert!(
                        p.recall > 0.0 && p.recall <= 1.0,
                        "{panel}/{} knob {}: recall {}",
                        s.name,
                        p.probes,
                        p.recall
                    );
                }
            }
            let vanilla = &series[2].points;
            assert!(
                vanilla.windows(2).all(|w| w[0].recall <= w[1].recall),
                "{panel}: vanilla ScaNN recall fell as its budget grew: {vanilla:?}"
            );
            assert_eq!(
                vanilla[3].recall, 1.0,
                "{panel}: budget >= n is an exact scan"
            );
        }
    }

    #[test]
    fn table4_tiny_produces_all_rows() {
        let report = table4(&tiny());
        assert_eq!(report.rows.len(), 3);
    }
}
