//! Undirected k-NN graphs built from the k′-NN matrix.

use usp_data::KnnMatrix;

/// An undirected graph over dataset points, stored as adjacency lists.
#[derive(Debug, Clone)]
pub struct KnnGraph {
    adj: Vec<Vec<u32>>,
}

impl KnnGraph {
    /// Builds the graph from a k′-NN matrix.
    ///
    /// With `symmetrize = true` an edge `(i, j)` exists when *either* point lists the other
    /// among its neighbours (the construction Neural LSH uses); with `false` only mutual
    /// neighbours are connected, which yields a sparser graph.
    pub fn from_knn_matrix(knn: &KnnMatrix, symmetrize: bool) -> Self {
        let n = knn.len();
        let mut adj: Vec<Vec<u32>> = vec![Vec::new(); n];
        for (i, nbrs) in knn.iter() {
            for &j in nbrs {
                let j = j as usize;
                if j == i {
                    continue;
                }
                if symmetrize {
                    adj[i].push(j as u32);
                    adj[j].push(i as u32);
                } else {
                    // mutual-only: add when j also lists i
                    if knn.neighbors_of(j).contains(&(i as u32)) {
                        adj[i].push(j as u32);
                    }
                }
            }
        }
        for list in &mut adj {
            list.sort_unstable();
            list.dedup();
        }
        Self { adj }
    }

    /// Builds a graph directly from adjacency lists (tests and synthetic graphs).
    pub fn from_adjacency(adj: Vec<Vec<u32>>) -> Self {
        Self { adj }
    }

    /// Number of vertices.
    pub fn len(&self) -> usize {
        self.adj.len()
    }

    /// True when the graph has no vertices.
    pub fn is_empty(&self) -> bool {
        self.adj.is_empty()
    }

    /// Neighbours of vertex `i`.
    pub fn neighbors(&self, i: usize) -> &[u32] {
        &self.adj[i]
    }

    /// Degree of vertex `i`.
    pub fn degree(&self, i: usize) -> usize {
        self.adj[i].len()
    }

    /// Total number of undirected edges.
    pub fn edge_count(&self) -> usize {
        self.adj.iter().map(Vec::len).sum::<usize>() / 2
    }

    /// Number of edges whose endpoints fall in different parts of `labels` (the edge cut —
    /// the objective minimised by the balanced partitioner and, through it, the quantity
    /// Neural LSH's quality depends on).
    pub fn edge_cut(&self, labels: &[usize]) -> usize {
        assert_eq!(labels.len(), self.len(), "edge_cut: label count mismatch");
        let mut cut = 0usize;
        for (i, nbrs) in self.adj.iter().enumerate() {
            for &j in nbrs {
                let j = j as usize;
                if i < j && labels[i] != labels[j] {
                    cut += 1;
                }
            }
        }
        cut
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use usp_data::KnnMatrix;

    fn chain_knn() -> KnnMatrix {
        // 4 points on a line, 1 neighbour each: 0->1, 1->0, 2->3, 3->2 plus 1<->2 asymmetry.
        KnnMatrix::from_rows(&[vec![1], vec![2], vec![3], vec![2]])
    }

    #[test]
    fn symmetrized_graph_contains_either_direction() {
        let g = KnnGraph::from_knn_matrix(&chain_knn(), true);
        assert_eq!(g.len(), 4);
        assert!(g.neighbors(1).contains(&0));
        assert!(g.neighbors(0).contains(&1));
        assert!(g.neighbors(2).contains(&1)); // 1 listed 2, symmetrized
        assert_eq!(g.edge_count(), 3);
    }

    #[test]
    fn mutual_graph_is_sparser() {
        let g = KnnGraph::from_knn_matrix(&chain_knn(), false);
        // Only 2<->3 is mutual.
        assert!(g.neighbors(2).contains(&3));
        assert!(
            g.neighbors(0).is_empty()
                || !g.neighbors(0).contains(&1)
                || g.neighbors(1).contains(&0)
        );
        assert!(g.edge_count() <= KnnGraph::from_knn_matrix(&chain_knn(), true).edge_count());
    }

    #[test]
    fn no_self_loops_or_duplicates() {
        let knn = KnnMatrix::from_rows(&[vec![1, 1], vec![0, 0], vec![0, 1]]);
        let g = KnnGraph::from_knn_matrix(&knn, true);
        for i in 0..g.len() {
            let nbrs = g.neighbors(i);
            assert!(!nbrs.contains(&(i as u32)));
            let set: std::collections::HashSet<_> = nbrs.iter().collect();
            assert_eq!(set.len(), nbrs.len());
        }
    }

    #[test]
    fn edge_cut_counts_cross_edges() {
        let g = KnnGraph::from_adjacency(vec![vec![1, 2], vec![0], vec![0, 3], vec![2]]);
        // Edges: 0-1, 0-2, 2-3.
        assert_eq!(g.edge_count(), 3);
        assert_eq!(g.edge_cut(&[0, 0, 0, 0]), 0);
        assert_eq!(g.edge_cut(&[0, 0, 1, 1]), 1);
        assert_eq!(g.edge_cut(&[0, 1, 1, 0]), 3);
    }

    #[test]
    fn degree_reporting() {
        let g = KnnGraph::from_adjacency(vec![vec![1, 2, 3], vec![0], vec![0], vec![0]]);
        assert_eq!(g.degree(0), 3);
        assert_eq!(g.degree(3), 1);
    }
}
