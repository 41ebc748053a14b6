//! Balanced graph partitioning.
//!
//! Neural LSH obtains its training labels by running a balanced combinatorial graph
//! partitioner (KaHIP, Sanders & Schulz) over the k-NN graph. That system is out of scope
//! to reproduce verbatim; this module provides the stand-in documented in DESIGN.md:
//!
//! 1. **Streaming assignment (Fennel-style):** nodes are visited in random order and
//!    greedily assigned to the bin that maximises the number of already-assigned
//!    neighbours, penalised by current bin occupancy, under a hard capacity.
//! 2. **Constrained greedy refinement:** several passes move boundary nodes to the bin
//!    where most of their neighbours live, whenever the move strictly reduces the edge cut
//!    and respects the balance constraint (a lightweight Kernighan–Lin/FM analogue).
//!
//! The result is a balanced, small-cut partition — exactly the artefact Neural LSH needs
//! as supervision — at a small fraction of KaHIP's engineering.

use rand::rngs::StdRng;
use usp_linalg::rng as lrng;

use crate::knn_graph::KnnGraph;

/// Configuration of the balanced graph partitioner.
#[derive(Debug, Clone)]
pub struct GraphPartitionConfig {
    /// Number of parts (bins) to produce.
    pub bins: usize,
    /// Allowed imbalance: every part holds at most `(1 + slack) * n / bins` nodes.
    pub balance_slack: f64,
    /// Number of refinement sweeps over all nodes.
    pub refinement_passes: usize,
    /// RNG seed controlling visit order.
    pub seed: u64,
}

impl GraphPartitionConfig {
    /// A sensible default mirroring Neural LSH's "perfectly balanced ± small slack" setup.
    pub fn new(bins: usize) -> Self {
        Self {
            bins,
            balance_slack: 0.05,
            refinement_passes: 8,
            seed: 42,
        }
    }
}

/// Partitions the graph into `cfg.bins` balanced parts, returning one label per vertex.
///
/// # Panics
///
/// If `cfg.bins == 0`. Zero bins used to be silently clamped to one, which produced
/// an all-zero labelling a caller almost certainly did not mean to train on; a
/// misconfiguration now fails loudly at the call site.
pub fn partition_graph(graph: &KnnGraph, cfg: &GraphPartitionConfig) -> Vec<usize> {
    let n = graph.len();
    assert!(cfg.bins >= 1, "partition_graph: bins must be >= 1");
    let m = cfg.bins;
    if n == 0 {
        return Vec::new();
    }
    if m == 1 {
        return vec![0; n];
    }
    let capacity = (((n as f64 / m as f64) * (1.0 + cfg.balance_slack)).ceil() as usize).max(1);

    let mut rng: StdRng = lrng::seeded(cfg.seed);
    // Stream nodes in BFS order (random component starts / tie-breaking): locality in the
    // streaming order is what lets the greedy assignment keep natural clusters together,
    // the same reason streaming partitioners preprocess with BFS/DFS orderings.
    let mut order = bfs_order(graph, &mut rng);

    let mut labels = vec![usize::MAX; n];
    let mut sizes = vec![0usize; m];

    // Streaming assignment: greedily join the bin holding the most already-assigned
    // neighbours. Balance is enforced by the hard capacity; a mild occupancy penalty
    // (strictly below 1, i.e. never overriding a real neighbour-count advantage) breaks
    // ties towards emptier bins so that region growing starts a fresh bin for each new
    // natural cluster instead of packing everything into bin 0.
    for &v in &order {
        let mut neighbour_counts = vec![0usize; m];
        for &u in graph.neighbors(v) {
            let lu = labels[u as usize];
            if lu != usize::MAX {
                neighbour_counts[lu] += 1;
            }
        }
        let mut best_bin = 0usize;
        let mut best_score = f64::NEG_INFINITY;
        for b in 0..m {
            if sizes[b] >= capacity {
                continue;
            }
            let score = neighbour_counts[b] as f64 - 0.9 * (sizes[b] as f64 / capacity as f64);
            if score > best_score {
                best_score = score;
                best_bin = b;
            }
        }
        if best_score == f64::NEG_INFINITY {
            // All bins at capacity (can only happen through ceil-rounding the
            // capacity when `n` is not divisible by `m`): deliberately overflow the
            // smallest bin rather than fail — every node must receive a label, and
            // the refinement passes below never grow a bin past the capacity again.
            // The `min_by_key` is total because `m >= 1` is asserted above, so the
            // range is never empty.
            best_bin = (0..m)
                .min_by_key(|&b| sizes[b])
                .expect("bins >= 1 is asserted on entry");
        }
        labels[v] = best_bin;
        sizes[best_bin] += 1;
    }

    // Refinement: move nodes towards the bin holding most of their neighbours when that
    // strictly improves the cut and keeps the balance constraint.
    for _pass in 0..cfg.refinement_passes {
        let mut moved = 0usize;
        lrng::shuffle(&mut rng, &mut order);
        for &v in &order {
            let current = labels[v];
            let mut neighbour_counts = vec![0usize; m];
            for &u in graph.neighbors(v) {
                neighbour_counts[labels[u as usize]] += 1;
            }
            let mut best_bin = current;
            let mut best_gain = 0isize;
            for b in 0..m {
                if b == current || sizes[b] + 1 > capacity {
                    continue;
                }
                let gain = neighbour_counts[b] as isize - neighbour_counts[current] as isize;
                if gain > best_gain {
                    best_gain = gain;
                    best_bin = b;
                }
            }
            if best_bin != current && sizes[current] > 1 {
                sizes[current] -= 1;
                sizes[best_bin] += 1;
                labels[v] = best_bin;
                moved += 1;
            }
        }
        if moved == 0 {
            break;
        }
    }

    labels
}

/// Visits all vertices in BFS order, starting new traversals from random unvisited seeds.
fn bfs_order(graph: &KnnGraph, rng: &mut StdRng) -> Vec<usize> {
    let n = graph.len();
    let mut seeds: Vec<usize> = (0..n).collect();
    lrng::shuffle(rng, &mut seeds);
    let mut visited = vec![false; n];
    let mut order = Vec::with_capacity(n);
    let mut queue = std::collections::VecDeque::new();
    for &s in &seeds {
        if visited[s] {
            continue;
        }
        visited[s] = true;
        queue.push_back(s);
        while let Some(v) = queue.pop_front() {
            order.push(v);
            for &u in graph.neighbors(v) {
                let u = u as usize;
                if !visited[u] {
                    visited[u] = true;
                    queue.push_back(u);
                }
            }
        }
    }
    order
}

#[cfg(test)]
mod tests {
    use super::*;
    use usp_data::KnnMatrix;
    use usp_linalg::{Distance, Matrix};

    /// Two well-separated 2-D Gaussian clusters of `half` points each.
    fn two_cluster_graph(half: usize) -> KnnGraph {
        let mut rng = usp_linalg::rng::seeded(13);
        let mut vals = Vec::new();
        for i in 0..2 * half {
            let offset = if i < half { 0.0 } else { 100.0 };
            vals.push(offset + usp_linalg::rng::standard_normal(&mut rng));
            vals.push(offset + usp_linalg::rng::standard_normal(&mut rng));
        }
        let points = Matrix::from_vec(2 * half, 2, vals);
        let knn = KnnMatrix::build(&points, 6, Distance::SquaredEuclidean);
        KnnGraph::from_knn_matrix(&knn, true)
    }

    #[test]
    fn bisection_recovers_natural_clusters() {
        let half = 40;
        let g = two_cluster_graph(half);
        let labels = partition_graph(&g, &GraphPartitionConfig::new(2));
        // The two natural clusters are far apart, so the cut must be (near-)zero and each
        // cluster must land almost entirely in one bin.
        assert!(g.edge_cut(&labels) <= 2, "edge cut {}", g.edge_cut(&labels));
        let majority_first: usize = {
            let ones = labels[..half].iter().filter(|&&l| l == 1).count();
            if ones * 2 > half {
                1
            } else {
                0
            }
        };
        let pure_a = labels[..half]
            .iter()
            .filter(|&&l| l == majority_first)
            .count();
        let pure_b = labels[half..]
            .iter()
            .filter(|&&l| l != majority_first)
            .count();
        assert!(
            pure_a >= half * 95 / 100,
            "cluster A purity {pure_a}/{half}"
        );
        assert!(
            pure_b >= half * 95 / 100,
            "cluster B purity {pure_b}/{half}"
        );
    }

    #[test]
    fn partition_respects_balance_constraint() {
        let g = two_cluster_graph(50);
        let cfg = GraphPartitionConfig {
            bins: 4,
            balance_slack: 0.10,
            refinement_passes: 6,
            seed: 1,
        };
        let labels = partition_graph(&g, &cfg);
        let mut sizes = vec![0usize; 4];
        for &l in &labels {
            sizes[l] += 1;
        }
        let cap = ((100.0 / 4.0) * 1.10f64).ceil() as usize;
        assert!(
            sizes.iter().all(|&s| s <= cap),
            "sizes {sizes:?} exceed cap {cap}"
        );
        assert_eq!(sizes.iter().sum::<usize>(), 100);
    }

    #[test]
    fn refinement_does_not_worsen_cut() {
        let g = two_cluster_graph(30);
        let no_refine = GraphPartitionConfig {
            refinement_passes: 0,
            ..GraphPartitionConfig::new(4)
        };
        let with_refine = GraphPartitionConfig {
            refinement_passes: 8,
            ..GraphPartitionConfig::new(4)
        };
        let cut0 = g.edge_cut(&partition_graph(&g, &no_refine));
        let cut1 = g.edge_cut(&partition_graph(&g, &with_refine));
        assert!(
            cut1 <= cut0,
            "refinement made the cut worse: {cut0} -> {cut1}"
        );
    }

    #[test]
    fn single_bin_and_empty_graph_edge_cases() {
        let g = two_cluster_graph(5);
        assert!(partition_graph(&g, &GraphPartitionConfig::new(1))
            .iter()
            .all(|&l| l == 0));
        let empty = KnnGraph::from_adjacency(vec![]);
        assert!(partition_graph(&empty, &GraphPartitionConfig::new(4)).is_empty());
    }

    #[test]
    #[should_panic(expected = "bins must be >= 1")]
    fn zero_bins_is_rejected_loudly() {
        // Pre-fix, `bins: 0` was silently clamped to a single bin and returned an
        // all-zero labelling — a misconfigured training run would "succeed" with
        // useless supervision. It must panic instead.
        let g = two_cluster_graph(5);
        partition_graph(&g, &GraphPartitionConfig::new(0));
    }

    #[test]
    fn all_labels_in_range() {
        let g = two_cluster_graph(25);
        let labels = partition_graph(&g, &GraphPartitionConfig::new(8));
        assert!(labels.iter().all(|&l| l < 8));
        assert_eq!(labels.len(), 50);
    }

    #[test]
    fn deterministic_for_fixed_seed() {
        let g = two_cluster_graph(20);
        let cfg = GraphPartitionConfig::new(4);
        assert_eq!(partition_graph(&g, &cfg), partition_graph(&g, &cfg));
    }
}

#[cfg(test)]
mod proptests {
    use super::*;
    use proptest::prelude::*;

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(16))]
        #[test]
        fn partition_is_always_balanced(n in 8usize..120, bins in 2usize..8, seed in 0u64..100) {
            // Ring graph of n nodes.
            let adj: Vec<Vec<u32>> = (0..n)
                .map(|i| vec![((i + 1) % n) as u32, ((i + n - 1) % n) as u32])
                .collect();
            let g = KnnGraph::from_adjacency(adj);
            let cfg = GraphPartitionConfig { bins, balance_slack: 0.10, refinement_passes: 4, seed };
            let labels = partition_graph(&g, &cfg);
            prop_assert_eq!(labels.len(), n);
            let mut sizes = vec![0usize; bins];
            for &l in &labels {
                prop_assert!(l < bins);
                sizes[l] += 1;
            }
            let cap = (((n as f64 / bins as f64) * 1.10).ceil() as usize).max(1);
            prop_assert!(sizes.iter().all(|&s| s <= cap), "sizes {:?} cap {}", sizes, cap);
        }
    }
}
