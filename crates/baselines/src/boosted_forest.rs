//! Boosted Search Forest (Li et al., NIPS 2011) — simplified reproduction.
//!
//! Boosted Search Forest learns hyperplane partition trees whose splits are chosen to
//! *preserve neighbourhoods*: a candidate hyperplane is scored by the (weighted) number of
//! near-neighbour pairs it separates, and boosting re-weights points whose neighbourhoods
//! previous trees broke. The hyperplane-only restriction is the limitation the paper
//! contrasts its own loss against (§2.3).
//!
//! Reproduction here:
//!
//! * [`BoostedForestStrategy`] — a [`SplitStrategy`] that, at every tree node, draws a pool
//!   of candidate hyperplanes (random directions through the node median) and keeps the
//!   one separating the fewest weighted k′-NN pairs. Used with
//!   [`crate::trees::BinaryPartitionTree`] it yields the depth-10 tree of Figure 6.
//! * [`BoostedSearchForest`] — an ensemble of such trees trained sequentially with
//!   AdaBoost-style point re-weighting; queries take the union of the per-tree leaves.

use rand::rngs::StdRng;
use usp_data::KnnMatrix;
use usp_index::Partitioner;
use usp_linalg::{matrix::dot, rng as lrng, Matrix};

use crate::trees::{BinaryPartitionTree, SplitStrategy, TreeConfig};

/// Neighbour-preserving hyperplane selection for one partition tree.
pub struct BoostedForestStrategy {
    knn: KnnMatrix,
    /// Per-point boosting weights (all 1.0 for the first tree of a forest).
    weights: Vec<f32>,
    /// Number of candidate hyperplanes evaluated per node.
    pub candidates: usize,
}

impl BoostedForestStrategy {
    /// Creates a strategy with uniform weights.
    pub fn new(knn: KnnMatrix, candidates: usize) -> Self {
        let n = knn.len();
        Self {
            knn,
            weights: vec![1.0; n],
            candidates: candidates.max(1),
        }
    }

    /// Creates a strategy with explicit boosting weights (one per data point).
    pub fn with_weights(knn: KnnMatrix, weights: Vec<f32>, candidates: usize) -> Self {
        assert_eq!(
            weights.len(),
            knn.len(),
            "weight count must match dataset size"
        );
        Self {
            knn,
            weights,
            candidates: candidates.max(1),
        }
    }

    /// Weighted number of k′-NN pairs (restricted to `indices`) separated by `(w, t)`.
    fn separation_cost(&self, data: &Matrix, indices: &[usize], w: &[f32], t: f32) -> f64 {
        let in_node: std::collections::HashSet<usize> = indices.iter().copied().collect();
        let mut cost = 0.0f64;
        for &i in indices {
            let side_i = dot(data.row(i), w) >= t;
            for &j in self.knn.neighbors_of(i) {
                let j = j as usize;
                if !in_node.contains(&j) {
                    continue;
                }
                let side_j = dot(data.row(j), w) >= t;
                if side_i != side_j {
                    cost += self.weights[i] as f64;
                }
            }
        }
        cost
    }
}

impl SplitStrategy for BoostedForestStrategy {
    fn split(&self, data: &Matrix, indices: &[usize], rng: &mut StdRng) -> (Vec<f32>, f32) {
        let d = data.cols();
        if indices.len() < 2 {
            return (lrng::random_unit_vector(rng, d), 0.0);
        }
        let mut best: Option<(Vec<f32>, f32)> = None;
        let mut best_cost = f64::INFINITY;
        for _ in 0..self.candidates {
            let w = lrng::random_unit_vector(rng, d);
            let mut projs: Vec<f32> = indices.iter().map(|&i| dot(data.row(i), &w)).collect();
            projs.sort_by(|a, b| usp_linalg::topk::nan_class_cmp(*a, *b));
            let t = projs[projs.len() / 2];
            let cost = self.separation_cost(data, indices, &w, t);
            if cost < best_cost {
                best_cost = cost;
                best = Some((w, t));
            }
        }
        best.unwrap_or_else(|| (lrng::random_unit_vector(rng, d), 0.0))
    }

    fn name(&self) -> String {
        "boosted-search-forest".into()
    }
}

/// An ensemble of neighbour-preserving partition trees with boosting between trees.
pub struct BoostedSearchForest {
    trees: Vec<BinaryPartitionTree>,
    bins_per_tree: usize,
}

impl BoostedSearchForest {
    /// Trains `n_trees` trees of the given depth. After each tree, the weight of every
    /// point is multiplied by the number of its k′ neighbours that ended up in a different
    /// leaf (plus one), so later trees focus on the poorly-served points — the same
    /// boosting idea the paper adopts for its own ensembles (Algorithm 3).
    pub fn train(
        data: &Matrix,
        knn: &KnnMatrix,
        n_trees: usize,
        config: &TreeConfig,
        candidates: usize,
    ) -> Self {
        let n = data.rows();
        let mut weights = vec![1.0f32; n];
        let mut trees = Vec::with_capacity(n_trees);
        for tree_idx in 0..n_trees {
            let strategy =
                BoostedForestStrategy::with_weights(knn.clone(), weights.clone(), candidates);
            let tree_cfg = TreeConfig {
                depth: config.depth,
                seed: config.seed.wrapping_add(tree_idx as u64 * 7919),
            };
            let tree = BinaryPartitionTree::build(data, &tree_cfg, &strategy);
            // Re-weight: count separated neighbours under this tree's leaves.
            let leaves = tree.assign_batch(data);
            for i in 0..n {
                let separated = knn
                    .neighbors_of(i)
                    .iter()
                    .filter(|&&j| leaves[j as usize] != leaves[i])
                    .count();
                weights[i] *= (1 + separated) as f32;
            }
            // Normalise so the weights stay in a sane range.
            let mean: f32 = weights.iter().sum::<f32>() / n as f32;
            if mean > 0.0 {
                weights.iter_mut().for_each(|w| *w /= mean);
            }
            trees.push(tree);
        }
        Self {
            trees,
            bins_per_tree: 1usize << config.depth,
        }
    }

    /// The trees of the forest.
    pub fn trees(&self) -> &[BinaryPartitionTree] {
        &self.trees
    }

    /// Number of trees.
    pub fn len(&self) -> usize {
        self.trees.len()
    }

    /// True when the forest holds no trees.
    pub fn is_empty(&self) -> bool {
        self.trees.is_empty()
    }
}

impl Partitioner for BoostedSearchForest {
    /// The forest's bins are the concatenation of each tree's leaves; a query's candidate
    /// bins interleave the per-tree leaf rankings.
    fn num_bins(&self) -> usize {
        self.bins_per_tree * self.trees.len()
    }

    fn bin_scores(&self, query: &[f32]) -> Vec<f32> {
        let mut scores = Vec::with_capacity(self.num_bins());
        for tree in &self.trees {
            scores.extend(tree.bin_scores(query));
        }
        scores
    }

    fn assign(&self, query: &[f32]) -> usize {
        // Points are stored under the first tree's leaf (the later trees act as fallbacks
        // at query time).
        self.trees[0].assign(query)
    }

    fn name(&self) -> String {
        format!(
            "boosted-search-forest(trees={},depth={})",
            self.trees.len(),
            (self.bins_per_tree as f32).log2() as usize
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use usp_linalg::Distance;

    fn two_blob_data(per: usize, seed: u64) -> (Matrix, KnnMatrix) {
        let mut rng = lrng::seeded(seed);
        let mut rows = Vec::new();
        for i in 0..2 * per {
            let off = if i < per { 0.0 } else { 30.0 };
            rows.push(vec![
                off + lrng::standard_normal(&mut rng),
                off + lrng::standard_normal(&mut rng),
            ]);
        }
        let data = Matrix::from_rows(&rows);
        let knn = KnnMatrix::build(&data, 5, Distance::SquaredEuclidean);
        (data, knn)
    }

    #[test]
    fn neighbour_preserving_split_beats_random_on_separated_blobs() {
        let (data, knn) = two_blob_data(60, 1);
        let strategy = BoostedForestStrategy::new(knn.clone(), 24);
        let cfg = TreeConfig::new(1);
        let tree = BinaryPartitionTree::build(&data, &cfg, &strategy);
        // With two far-apart blobs, the best neighbour-preserving hyperplane separates the
        // blobs, so almost no k-NN pair is broken.
        let leaves = tree.assign_batch(&data);
        let broken: usize = (0..data.rows())
            .map(|i| {
                knn.neighbors_of(i)
                    .iter()
                    .filter(|&&j| leaves[j as usize] != leaves[i])
                    .count()
            })
            .sum();
        let total: usize = data.rows() * knn.k();
        assert!(
            broken * 10 < total,
            "broken {broken}/{total} neighbour links"
        );
    }

    #[test]
    fn forest_training_produces_distinct_trees() {
        let (data, knn) = two_blob_data(40, 2);
        let forest = BoostedSearchForest::train(&data, &knn, 3, &TreeConfig::new(2), 8);
        assert_eq!(forest.len(), 3);
        assert_eq!(forest.num_bins(), 12);
        assert!(!forest.is_empty());
        // The boosting reseeds and reweights, so the trees should not all be identical.
        let q = data.row(0);
        let leaves: std::collections::HashSet<usize> =
            forest.trees().iter().map(|t| t.assign(q)).collect();
        assert!(!leaves.is_empty());
    }

    #[test]
    fn forest_scores_cover_all_trees() {
        let (data, knn) = two_blob_data(30, 3);
        let forest = BoostedSearchForest::train(&data, &knn, 2, &TreeConfig::new(2), 4);
        let scores = forest.bin_scores(data.row(5));
        assert_eq!(scores.len(), 8);
        assert!(forest.name().contains("boosted"));
        assert!(forest.assign(data.row(5)) < 4);
    }

    #[test]
    #[should_panic]
    fn mismatched_weights_panic() {
        let (_, knn) = two_blob_data(10, 4);
        let _ = BoostedForestStrategy::with_weights(knn, vec![1.0; 3], 4);
    }
}
