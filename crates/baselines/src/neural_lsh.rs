//! Neural LSH (Dong, Indyk, Razenshteyn & Wagner, ICLR 2020) and its Regression LSH
//! variant — the paper's main learned baselines.
//!
//! Neural LSH is a *supervised* pipeline:
//!
//! 1. build the k-NN graph of the dataset;
//! 2. run a balanced combinatorial graph partitioner over it (KaHIP in the original; the
//!    Fennel + refinement partitioner of `usp-graph` here) to obtain per-point bin labels —
//!    the expensive preprocessing step the paper's unsupervised method eliminates;
//! 3. train a classifier (a small MLP, or logistic regression for "Regression LSH") to map
//!    points — and, at query time, out-of-sample queries — to those labels.
//!
//! The lookup table is built from the graph-partition labels; the network is only used to
//! route queries, which is exactly the "partitioning step not part of the learning
//! pipeline" property the paper criticises.

use rand::rngs::StdRng;
use rand::Rng;
use usp_data::KnnMatrix;
use usp_graph::{partition_graph, GraphPartitionConfig, KnnGraph};
use usp_index::Partitioner;
use usp_linalg::{rng as lrng, Matrix};
use usp_nn::{loss, Adam, MlpConfig, Sequential};

use crate::trees::SplitStrategy;

/// Configuration of the Neural LSH baseline.
#[derive(Debug, Clone)]
pub struct NeuralLshConfig {
    /// Number of bins the graph partitioner produces (and the classifier predicts).
    pub bins: usize,
    /// Hidden layer widths of the classifier; empty = logistic regression. The original
    /// uses one hidden layer of 512 units (Table 2 of the paper).
    pub hidden: Vec<usize>,
    /// Training epochs.
    pub epochs: usize,
    /// Mini-batch size.
    pub batch_size: usize,
    /// Adam learning rate.
    pub learning_rate: f32,
    /// Allowed imbalance of the graph partition.
    pub balance_slack: f64,
    /// RNG seed.
    pub seed: u64,
}

impl NeuralLshConfig {
    /// The configuration used in the paper's comparisons: one hidden layer of 512 units.
    pub fn paper_default(bins: usize) -> Self {
        Self {
            bins,
            hidden: vec![512],
            epochs: 30,
            batch_size: 512,
            learning_rate: 1e-3,
            balance_slack: 0.05,
            seed: 42,
        }
    }

    /// A smaller configuration for tests and quick experiments.
    pub fn small(bins: usize) -> Self {
        Self {
            hidden: vec![64],
            epochs: 40,
            batch_size: 64,
            learning_rate: 5e-3,
            ..Self::paper_default(bins)
        }
    }
}

/// A trained Neural LSH model.
pub struct NeuralLsh {
    model: Sequential,
    labels: Vec<usize>,
    bins: usize,
    classifier_accuracy: f32,
}

impl NeuralLsh {
    /// Runs the full Neural LSH pipeline: graph partition → supervised classifier.
    pub fn fit(data: &Matrix, knn: &KnnMatrix, config: &NeuralLshConfig) -> Self {
        assert_eq!(
            data.rows(),
            knn.len(),
            "NeuralLsh::fit: data/knn size mismatch"
        );
        // Step 1-2: balanced partition of the k-NN graph (the supervision signal).
        let graph = KnnGraph::from_knn_matrix(knn, true);
        let labels = partition_graph(
            &graph,
            &GraphPartitionConfig {
                bins: config.bins,
                balance_slack: config.balance_slack,
                refinement_passes: 8,
                seed: config.seed,
            },
        );

        // Step 3: train the classifier on (point, label) pairs.
        let mlp_cfg = MlpConfig {
            input_dim: data.cols(),
            hidden: config.hidden.clone(),
            output_dim: config.bins,
            dropout: if config.hidden.is_empty() { 0.0 } else { 0.1 },
            batch_norm: !config.hidden.is_empty(),
            seed: config.seed,
        };
        let mut model = mlp_cfg.build();
        let mut optimizer = Adam::new(config.learning_rate);
        let mut rng = lrng::seeded(config.seed ^ 0xB10C);
        let n = data.rows();
        let batch = config.batch_size.clamp(8, n);

        for _epoch in 0..config.epochs {
            let mut order: Vec<usize> = (0..n).collect();
            lrng::shuffle(&mut rng, &mut order);
            for chunk in order.chunks(batch) {
                let x = data.select_rows(chunk);
                let y: Vec<usize> = chunk.iter().map(|&i| labels[i]).collect();
                let logits = model.forward(&x);
                let (_, dlogits) = loss::cross_entropy_with_labels(&logits, &y);
                model.zero_grad();
                model.backward(&dlogits);
                optimizer.step(&mut model);
            }
        }

        // Training-set routing accuracy (a useful diagnostic the original paper reports).
        let logits = model.forward_eval(data);
        let classifier_accuracy = loss::accuracy(&logits, &labels);

        Self {
            model,
            labels,
            bins: config.bins,
            classifier_accuracy,
        }
    }

    /// The graph-partition labels used to build the lookup table.
    pub fn labels(&self) -> &[usize] {
        &self.labels
    }

    /// Fraction of training points the classifier routes to their graph-partition bin.
    pub fn classifier_accuracy(&self) -> f32 {
        self.classifier_accuracy
    }

    /// The underlying classifier.
    pub fn model(&self) -> &Sequential {
        &self.model
    }
}

impl Partitioner for NeuralLsh {
    fn num_bins(&self) -> usize {
        self.bins
    }

    fn bin_scores(&self, query: &[f32]) -> Vec<f32> {
        let x = Matrix::from_vec(1, query.len(), query.to_vec());
        self.model.predict_proba_eval(&x).row_to_vec(0)
    }

    fn num_parameters(&self) -> usize {
        self.model.num_params()
    }

    fn name(&self) -> String {
        format!("neural-lsh({} bins)", self.bins)
    }
}

/// Regression LSH split rule for binary partition trees (Figure 6).
///
/// At every tree node the points of the node are 2-way partitioned on their (local) k-NN
/// graph and a logistic-regression classifier is trained on the resulting labels; the
/// classifier's decision boundary becomes the node's hyperplane.
pub struct RegressionLshSplit {
    /// Neighbours per point for the node-local k-NN graphs.
    pub knn_k: usize,
    /// Training epochs of each node's logistic regression.
    pub epochs: usize,
    /// Adam learning rate.
    pub learning_rate: f32,
}

impl Default for RegressionLshSplit {
    fn default() -> Self {
        Self {
            knn_k: 5,
            epochs: 40,
            learning_rate: 0.05,
        }
    }
}

impl SplitStrategy for RegressionLshSplit {
    fn split(&self, data: &Matrix, indices: &[usize], rng: &mut StdRng) -> (Vec<f32>, f32) {
        let d = data.cols();
        if indices.len() < 4 {
            return (lrng::random_unit_vector(rng, d), 0.0);
        }
        let node_data = data.select_rows(indices);
        // Node-local 2-way balanced graph partition as supervision.
        let k = self.knn_k.min(indices.len() - 1);
        let knn = KnnMatrix::build(&node_data, k, usp_linalg::Distance::SquaredEuclidean);
        let graph = KnnGraph::from_knn_matrix(&knn, true);
        let labels = partition_graph(
            &graph,
            &GraphPartitionConfig {
                bins: 2,
                balance_slack: 0.05,
                refinement_passes: 6,
                seed: rng.random::<u64>(),
            },
        );

        // Logistic regression trained to predict the side.
        let mut model = usp_nn::logistic_regression(d, 2, rng.random::<u64>());
        let mut optimizer = Adam::new(self.learning_rate);
        for _ in 0..self.epochs {
            let logits = model.forward(&node_data);
            let (_, dlogits) = loss::cross_entropy_with_labels(&logits, &labels);
            model.zero_grad();
            model.backward(&dlogits);
            optimizer.step(&mut model);
        }

        // Extract the separating hyperplane: logit_1 - logit_0 = (w1 - w0)·x + (b1 - b0).
        let (w, t) = match model.layers().first() {
            Some(usp_nn::Layer::Linear(lin)) => {
                let w0 = lin.weight().row(0);
                let w1 = lin.weight().row(1);
                let w: Vec<f32> = w1.iter().zip(w0).map(|(a, b)| a - b).collect();
                let t = lin.bias[0] - lin.bias[1];
                (w, t)
            }
            _ => (lrng::random_unit_vector(rng, d), 0.0),
        };
        if w.iter().all(|&x| x.abs() < 1e-12) {
            return (lrng::random_unit_vector(rng, d), 0.0);
        }
        (w, t)
    }

    fn name(&self) -> String {
        "regression-lsh".into()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::trees::{BinaryPartitionTree, TreeConfig};
    use usp_index::{PartitionIndex, Partitioner};
    use usp_linalg::Distance;

    fn blobs(per: usize, centers: &[[f32; 2]], seed: u64) -> Matrix {
        let mut rng = lrng::seeded(seed);
        let mut rows = Vec::new();
        for c in centers {
            for _ in 0..per {
                rows.push(vec![
                    c[0] + 0.5 * lrng::standard_normal(&mut rng),
                    c[1] + 0.5 * lrng::standard_normal(&mut rng),
                ]);
            }
        }
        Matrix::from_rows(&rows)
    }

    #[test]
    fn neural_lsh_learns_to_route_queries_to_partition_bins() {
        let data = blobs(60, &[[0., 0.], [15., 0.], [0., 15.], [15., 15.]], 1);
        let knn = KnnMatrix::build(&data, 5, Distance::SquaredEuclidean);
        let nlsh = NeuralLsh::fit(&data, &knn, &NeuralLshConfig::small(4));
        assert_eq!(nlsh.num_bins(), 4);
        assert!(
            nlsh.classifier_accuracy() > 0.9,
            "classifier accuracy {}",
            nlsh.classifier_accuracy()
        );
        // The lookup table uses the graph-partition labels and must be balanced.
        let labels = nlsh.labels().to_vec();
        let idx = PartitionIndex::from_assignments(nlsh, &data, labels, Distance::SquaredEuclidean);
        let stats = idx.balance();
        assert!(stats.imbalance < 1.2, "imbalance {}", stats.imbalance);
        // Searching with one probe from a point inside a blob finds its neighbours.
        let res = idx.search(idx.point(10), 5, 1);
        assert!(res.ids.contains(&10));
    }

    #[test]
    fn neural_lsh_parameter_count_scales_with_hidden_width() {
        let data = blobs(30, &[[0., 0.], [10., 10.]], 2);
        let knn = KnnMatrix::build(&data, 4, Distance::SquaredEuclidean);
        let small = NeuralLsh::fit(
            &data,
            &knn,
            &NeuralLshConfig {
                hidden: vec![16],
                epochs: 2,
                ..NeuralLshConfig::small(2)
            },
        );
        let big = NeuralLsh::fit(
            &data,
            &knn,
            &NeuralLshConfig {
                hidden: vec![64],
                epochs: 2,
                ..NeuralLshConfig::small(2)
            },
        );
        assert!(big.num_parameters() > small.num_parameters());
        assert!(small.name().contains("neural-lsh"));
    }

    #[test]
    fn regression_lsh_tree_separates_blobs() {
        let data = blobs(40, &[[0., 0.], [20., 20.]], 3);
        let strategy = RegressionLshSplit {
            epochs: 60,
            ..Default::default()
        };
        let tree = BinaryPartitionTree::build(&data, &TreeConfig::new(1), &strategy);
        let idx = PartitionIndex::build(tree, &data, Distance::SquaredEuclidean);
        let a: Vec<_> = (0..data.rows()).map(|id| idx.bin_of(id)).collect();
        // The two blobs must land (almost entirely) in different leaves.
        let first_blob_majority = a[..40].iter().filter(|&&x| x == a[0]).count();
        let second_blob_other = a[40..].iter().filter(|&&x| x != a[0]).count();
        assert!(
            first_blob_majority >= 38,
            "first blob split: {first_blob_majority}/40"
        );
        assert!(
            second_blob_other >= 38,
            "second blob split: {second_blob_other}/40"
        );
    }
}
