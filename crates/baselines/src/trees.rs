//! Recursive binary hyperplane partition trees (the Figure 6 family).
//!
//! Every method compared in §5.4.2 — Regression LSH, 2-means trees, PCA trees,
//! random-projection trees, learned KD-trees and Boosted Search Forest — recursively
//! splits the dataset with a hyperplane at each node down to depth 10 (1024 leaves/bins).
//! [`BinaryPartitionTree`] implements the shared tree machinery (complete binary tree of
//! `(direction, threshold)` splits, descent, and spill-style multi-probe bin ranking);
//! the methods differ only in their [`SplitStrategy`].

use rand::rngs::StdRng;
use rand::Rng;
use usp_index::Partitioner;
use usp_linalg::{matrix::dot, pca::Pca, rng as lrng, Matrix};
use usp_quant::{KMeans, KMeansConfig};

/// Tree construction parameters.
#[derive(Debug, Clone)]
pub struct TreeConfig {
    /// Tree depth; the partition has `2^depth` bins.
    pub depth: usize,
    /// RNG seed (random directions, k-means seeding, ...).
    pub seed: u64,
}

impl TreeConfig {
    /// A depth-`depth` tree with the default seed.
    pub fn new(depth: usize) -> Self {
        Self { depth, seed: 42 }
    }
}

/// Chooses the splitting hyperplane of one tree node.
///
/// The returned pair `(w, t)` sends a point `x` to the **right** child when `w·x ≥ t`.
pub trait SplitStrategy: Send + Sync {
    /// Computes the split for the node containing `indices` (row indices into `data`).
    fn split(&self, data: &Matrix, indices: &[usize], rng: &mut StdRng) -> (Vec<f32>, f32);

    /// Name of the resulting tree method, for reports.
    fn name(&self) -> String;
}

/// Median of a set of values (average of the two middle values for even counts).
fn median(mut values: Vec<f32>) -> f32 {
    if values.is_empty() {
        return 0.0;
    }
    values.sort_by(|a, b| usp_linalg::topk::nan_class_cmp(*a, *b));
    let n = values.len();
    if n % 2 == 1 {
        values[n / 2]
    } else {
        0.5 * (values[n / 2 - 1] + values[n / 2])
    }
}

fn projections(data: &Matrix, indices: &[usize], w: &[f32]) -> Vec<f32> {
    indices.iter().map(|&i| dot(data.row(i), w)).collect()
}

/// Learned KD-tree split: the coordinate axis with the largest variance among the node's
/// points, thresholded at the median (Cayton & Dasgupta-style learned kd-tree).
#[derive(Debug, Clone, Default)]
pub struct KdSplit;

impl SplitStrategy for KdSplit {
    fn split(&self, data: &Matrix, indices: &[usize], rng: &mut StdRng) -> (Vec<f32>, f32) {
        let d = data.cols();
        if indices.len() < 2 {
            return (lrng::random_unit_vector(rng, d), 0.0);
        }
        // Variance per axis over the node's points.
        let mut best_axis = 0usize;
        let mut best_var = -1.0f32;
        for j in 0..d {
            let vals: Vec<f32> = indices.iter().map(|&i| data.row(i)[j]).collect();
            let v = usp_linalg::stats::variance(&vals);
            if v > best_var {
                best_var = v;
                best_axis = j;
            }
        }
        let mut w = vec![0.0f32; d];
        w[best_axis] = 1.0;
        let t = median(projections(data, indices, &w));
        (w, t)
    }

    fn name(&self) -> String {
        "kd-tree".into()
    }
}

/// PCA-tree split: the first principal component of the node's points, median threshold.
#[derive(Debug, Clone, Default)]
pub struct PcaSplit;

impl SplitStrategy for PcaSplit {
    fn split(&self, data: &Matrix, indices: &[usize], rng: &mut StdRng) -> (Vec<f32>, f32) {
        let d = data.cols();
        if indices.len() < 3 {
            return (lrng::random_unit_vector(rng, d), 0.0);
        }
        let node_data = data.select_rows(indices);
        let pca = Pca::fit(&node_data, 1, 7);
        let w = pca.first_component().to_vec();
        let t = median(projections(data, indices, &w));
        (w, t)
    }

    fn name(&self) -> String {
        "pca-tree".into()
    }
}

/// Random-projection-tree split: a random unit direction, median threshold.
#[derive(Debug, Clone, Default)]
pub struct RandomProjectionSplit;

impl SplitStrategy for RandomProjectionSplit {
    fn split(&self, data: &Matrix, indices: &[usize], rng: &mut StdRng) -> (Vec<f32>, f32) {
        let w = lrng::random_unit_vector(rng, data.cols());
        let t = median(projections(data, indices, &w));
        (w, t)
    }

    fn name(&self) -> String {
        "rp-tree".into()
    }
}

/// 2-means-tree split: run k-means with k = 2 on the node's points; the hyperplane is the
/// perpendicular bisector of the two centroids.
#[derive(Debug, Clone, Default)]
pub struct TwoMeansSplit;

impl SplitStrategy for TwoMeansSplit {
    fn split(&self, data: &Matrix, indices: &[usize], rng: &mut StdRng) -> (Vec<f32>, f32) {
        let d = data.cols();
        if indices.len() < 2 {
            return (lrng::random_unit_vector(rng, d), 0.0);
        }
        let node_data = data.select_rows(indices);
        let km = KMeans::fit(
            &node_data,
            &KMeansConfig {
                k: 2,
                max_iters: 20,
                tol: 1e-4,
                seed: rng.random::<u64>(),
            },
        );
        let c0 = km.centroids.row(0);
        let c1 = km.centroids.row(1);
        let w: Vec<f32> = c1.iter().zip(c0).map(|(a, b)| a - b).collect();
        if w.iter().all(|&x| x.abs() < 1e-12) {
            return (lrng::random_unit_vector(rng, d), 0.0);
        }
        let mid: Vec<f32> = c1.iter().zip(c0).map(|(a, b)| 0.5 * (a + b)).collect();
        let t = dot(&w, &mid);
        (w, t)
    }

    fn name(&self) -> String {
        "2-means-tree".into()
    }
}

/// One node of the complete binary split tree.
#[derive(Debug, Clone)]
struct SplitNode {
    w: Vec<f32>,
    t: f32,
}

/// A complete binary hyperplane partition tree of depth `depth` (= `2^depth` bins).
#[derive(Debug, Clone)]
pub struct BinaryPartitionTree {
    nodes: Vec<SplitNode>,
    depth: usize,
    method: String,
}

impl BinaryPartitionTree {
    /// Builds the tree by recursively splitting `data` with the given strategy.
    pub fn build<S: SplitStrategy>(data: &Matrix, config: &TreeConfig, strategy: &S) -> Self {
        assert!(
            config.depth >= 1 && config.depth <= 16,
            "depth must be in 1..=16"
        );
        let n_nodes = (1usize << config.depth) - 1;
        let mut nodes = vec![
            SplitNode {
                w: vec![0.0; data.cols()],
                t: 0.0
            };
            n_nodes
        ];
        let mut rng = lrng::seeded(config.seed);

        // Recursive construction over (node id, point indices); iterative stack to avoid
        // recursion-depth concerns.
        let all: Vec<usize> = (0..data.rows()).collect();
        let mut stack: Vec<(usize, Vec<usize>)> = vec![(0, all)];
        while let Some((node, indices)) = stack.pop() {
            let (w, t) = strategy.split(data, &indices, &mut rng);
            let (mut left, mut right) = (Vec::new(), Vec::new());
            for &i in &indices {
                if dot(data.row(i), &w) >= t {
                    right.push(i);
                } else {
                    left.push(i);
                }
            }
            nodes[node] = SplitNode { w, t };
            let left_child = 2 * node + 1;
            let right_child = 2 * node + 2;
            if left_child < n_nodes {
                stack.push((left_child, left));
                stack.push((right_child, right));
            }
        }

        Self {
            nodes,
            depth: config.depth,
            method: strategy.name(),
        }
    }

    /// Tree depth.
    pub fn depth(&self) -> usize {
        self.depth
    }
}

impl Partitioner for BinaryPartitionTree {
    fn num_bins(&self) -> usize {
        1usize << self.depth
    }

    fn bin_scores(&self, query: &[f32]) -> Vec<f32> {
        // Spill-style multi-probe: the score of a leaf is the negative total margin by
        // which the query violates the decisions needed to reach that leaf.
        let margins: Vec<f32> = self.nodes.iter().map(|n| dot(query, &n.w) - n.t).collect();
        let bins = self.num_bins();
        let mut scores = vec![0.0f32; bins];
        // Walk every leaf's path from the root; depth ≤ 16 keeps this cheap.
        for leaf in 0..bins {
            let mut cost = 0.0f32;
            let mut node = 0usize;
            for level in (0..self.depth).rev() {
                let go_right = (leaf >> level) & 1 == 1;
                let m = margins[node];
                if go_right {
                    cost += (-m).max(0.0);
                } else {
                    cost += m.max(0.0);
                }
                node = 2 * node + if go_right { 2 } else { 1 };
            }
            scores[leaf] = -cost;
        }
        scores
    }

    fn assign(&self, query: &[f32]) -> usize {
        // Descend bit-by-bit, most significant level first, mirroring bin_scores' leaf
        // numbering (leaf index bits encode the path, root decision at the top bit).
        let mut node = 0usize;
        let mut leaf = 0usize;
        for _ in 0..self.depth {
            let go_right = dot(query, &self.nodes[node].w) >= self.nodes[node].t;
            leaf = (leaf << 1) | usize::from(go_right);
            node = 2 * node + if go_right { 2 } else { 1 };
        }
        leaf
    }

    fn name(&self) -> String {
        format!("{}(depth={})", self.method, self.depth)
    }
}

/// Convenience constructors for the Figure 6 baselines.
impl BinaryPartitionTree {
    /// Learned KD-tree.
    pub fn kd(data: &Matrix, config: &TreeConfig) -> Self {
        Self::build(data, config, &KdSplit)
    }
    /// PCA tree.
    pub fn pca(data: &Matrix, config: &TreeConfig) -> Self {
        Self::build(data, config, &PcaSplit)
    }
    /// Random-projection tree.
    pub fn random_projection(data: &Matrix, config: &TreeConfig) -> Self {
        Self::build(data, config, &RandomProjectionSplit)
    }
    /// 2-means tree.
    pub fn two_means(data: &Matrix, config: &TreeConfig) -> Self {
        Self::build(data, config, &TwoMeansSplit)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use usp_index::{PartitionIndex, Partitioner};
    use usp_linalg::Distance;

    fn gaussian(n: usize, d: usize, seed: u64) -> Matrix {
        lrng::normal_matrix(&mut lrng::seeded(seed), n, d, 1.0)
    }

    #[test]
    fn median_split_trees_are_balanced() {
        let data = gaussian(256, 8, 1);
        for tree in [
            BinaryPartitionTree::kd(&data, &TreeConfig::new(3)),
            BinaryPartitionTree::pca(&data, &TreeConfig::new(3)),
            BinaryPartitionTree::random_projection(&data, &TreeConfig::new(3)),
        ] {
            let idx = PartitionIndex::build(tree, &data, Distance::SquaredEuclidean);
            let stats = idx.balance();
            assert_eq!(stats.bins, 8);
            assert_eq!(stats.total, 256);
            // Median thresholds keep every leaf within a couple of points of 32.
            assert!(
                stats.max <= 36 && stats.min >= 28,
                "sizes {:?}",
                idx.bucket_sizes()
            );
        }
    }

    #[test]
    fn assign_matches_top_ranked_bin() {
        let data = gaussian(200, 6, 2);
        let tree = BinaryPartitionTree::pca(&data, &TreeConfig::new(4));
        for i in (0..200).step_by(23) {
            let q = data.row(i);
            let ranked = tree.rank_bins(q, 1);
            assert_eq!(ranked[0], tree.assign(q));
        }
    }

    #[test]
    fn own_leaf_has_zero_violation_cost() {
        let data = gaussian(100, 4, 3);
        let tree = BinaryPartitionTree::kd(&data, &TreeConfig::new(3));
        let q = data.row(10);
        let scores = tree.bin_scores(q);
        let own = tree.assign(q);
        assert!(scores[own].abs() < 1e-5);
        assert!(scores.iter().all(|&s| s <= 1e-5));
    }

    #[test]
    fn two_means_tree_separates_far_clusters() {
        // Two tight clusters: the depth-1 2-means tree must separate them exactly.
        let mut rows = Vec::new();
        let mut rng = lrng::seeded(5);
        for _ in 0..40 {
            rows.push(vec![lrng::standard_normal(&mut rng) * 0.1, 0.0]);
        }
        for _ in 0..40 {
            rows.push(vec![20.0 + lrng::standard_normal(&mut rng) * 0.1, 0.0]);
        }
        let data = Matrix::from_rows(&rows);
        let tree = BinaryPartitionTree::two_means(&data, &TreeConfig::new(1));
        let idx = PartitionIndex::build(tree, &data, Distance::SquaredEuclidean);
        let a: Vec<_> = (0..data.rows()).map(|id| idx.bin_of(id)).collect();
        assert!(a[..40].iter().all(|&x| x == a[0]));
        assert!(a[40..].iter().all(|&x| x != a[0]));
    }

    #[test]
    fn deeper_trees_make_more_bins() {
        let data = gaussian(128, 4, 7);
        let t1 = BinaryPartitionTree::kd(&data, &TreeConfig::new(1));
        let t5 = BinaryPartitionTree::kd(&data, &TreeConfig::new(5));
        assert_eq!(t1.num_bins(), 2);
        assert_eq!(t5.num_bins(), 32);
        assert!(t5.name().contains("depth=5"));
    }

    #[test]
    fn probing_more_leaves_recovers_boundary_neighbours() {
        let data = gaussian(400, 8, 9);
        let tree = BinaryPartitionTree::kd(&data, &TreeConfig::new(4));
        let idx = PartitionIndex::build(tree, &data, Distance::SquaredEuclidean);
        let truth = usp_data::exact_knn(
            &data,
            &data.select_rows(&[5]),
            10,
            Distance::SquaredEuclidean,
        );
        let few = idx.search(data.row(5), 10, 1);
        let many = idx.search(data.row(5), 10, 8);
        let t: std::collections::HashSet<usize> = truth[0].iter().copied().collect();
        let recall_few = few.ids.iter().filter(|i| t.contains(i)).count();
        let recall_many = many.ids.iter().filter(|i| t.contains(i)).count();
        assert!(recall_many >= recall_few);
        assert!(many.candidates_scanned > few.candidates_scanned);
    }
}

#[cfg(test)]
mod proptests {
    use super::*;
    use proptest::prelude::*;

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(12))]
        #[test]
        fn every_point_lands_in_a_valid_leaf(seed in 0u64..200, depth in 1usize..6) {
            let data = lrng::normal_matrix(&mut lrng::seeded(seed), 64, 5, 1.0);
            let tree = BinaryPartitionTree::random_projection(&data, &TreeConfig { depth, seed });
            for i in 0..data.rows() {
                let leaf = tree.assign(data.row(i));
                prop_assert!(leaf < tree.num_bins());
            }
        }
    }
}
