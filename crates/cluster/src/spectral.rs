//! Spectral clustering (Ng, Jordan & Weiss, 2001).
//!
//! The Table 5 comparator the paper singles out as matching its clustering quality but not
//! scaling: build a k-NN affinity graph, form the symmetric normalized adjacency
//! `M = D^{-1/2} W D^{-1/2}`, take its top `k` eigenvectors (equivalently the bottom
//! eigenvectors of the normalized Laplacian), row-normalise the spectral embedding, and
//! run k-means in that space. Eigenvectors come from a dense Jacobi eigendecomposition
//! (`usp_linalg::eigen`), which is robust to the nearly degenerate spectra these affinity
//! graphs have — and whose `O(n^3)` cost is exactly why spectral clustering does not scale
//! to the ANN-sized datasets the paper targets (§5.5).

use usp_data::KnnMatrix;
use usp_linalg::{Distance, Matrix};
use usp_quant::{KMeans, KMeansConfig};

/// Spectral clustering parameters.
#[derive(Debug, Clone)]
pub struct SpectralConfig {
    /// Number of clusters.
    pub k: usize,
    /// Neighbours per point in the affinity graph.
    pub n_neighbors: usize,
    /// Maximum Jacobi sweeps for the eigendecomposition.
    pub max_sweeps: usize,
    /// RNG seed (k-means on the spectral embedding).
    pub seed: u64,
}

impl SpectralConfig {
    /// A sensible default for 2-D toy datasets.
    pub fn new(k: usize) -> Self {
        Self {
            k,
            n_neighbors: 10,
            max_sweeps: 20,
            seed: 42,
        }
    }
}

/// Runs spectral clustering over the rows of `data`, returning one label per point.
pub fn spectral_clustering(data: &Matrix, config: &SpectralConfig) -> Vec<usize> {
    let n = data.rows();
    assert!(
        n >= config.k,
        "spectral_clustering: fewer points than clusters"
    );

    // 1. k-NN affinity matrix (symmetrised, unit weights).
    let knn = KnnMatrix::build(
        data,
        config.n_neighbors.min(n - 1),
        Distance::SquaredEuclidean,
    );
    let mut w = vec![0.0f64; n * n];
    for (i, nbrs) in knn.iter() {
        for &j in nbrs {
            let j = j as usize;
            w[i * n + j] = 1.0;
            w[j * n + i] = 1.0;
        }
    }

    // 2. Symmetric normalisation M = D^-1/2 W D^-1/2.
    let degrees: Vec<f64> = (0..n)
        .map(|i| (0..n).map(|j| w[i * n + j]).sum::<f64>().max(1e-12))
        .collect();
    for i in 0..n {
        for j in 0..n {
            w[i * n + j] /= (degrees[i] * degrees[j]).sqrt();
        }
    }

    // 3. Top-k eigenvectors of M via a dense Jacobi eigendecomposition.
    let eigen = usp_linalg::eigen::symmetric_eigen(&w, n, config.max_sweeps);
    let embedding: Vec<&Vec<f64>> = eigen.eigenvectors.iter().take(config.k).collect();

    // 4. Row-normalise and cluster with k-means.
    let mut rows: Vec<Vec<f32>> = Vec::with_capacity(n);
    for i in 0..n {
        let mut row: Vec<f32> = (0..config.k.min(embedding.len()))
            .map(|c| embedding[c][i] as f32)
            .collect();
        let norm: f32 = row.iter().map(|x| x * x).sum::<f32>().sqrt();
        if norm > 1e-9 {
            row.iter_mut().for_each(|x| *x /= norm);
        }
        rows.push(row);
    }
    let spectral_points = Matrix::from_rows(&rows);
    let km = KMeans::fit(
        &spectral_points,
        &KMeansConfig {
            k: config.k,
            max_iters: 100,
            tol: 1e-5,
            seed: config.seed,
        },
    );
    km.assign_all(&spectral_points)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::metrics::{adjusted_rand_index, to_pred_labels};
    use usp_data::synthetic;

    #[test]
    fn clusters_two_blobs_perfectly() {
        let ds = synthetic::blobs(200, 2, 2, 0.4, 1);
        let labels = spectral_clustering(ds.points(), &SpectralConfig::new(2));
        let ari = adjusted_rand_index(&to_pred_labels(&labels), ds.labels().unwrap());
        assert!(ari > 0.95, "ARI on blobs {ari}");
    }

    #[test]
    fn recovers_non_convex_circles() {
        let ds = synthetic::circles(300, 0.03, 0.4, 2);
        let labels = spectral_clustering(ds.points(), &SpectralConfig::new(2));
        let ari = adjusted_rand_index(&to_pred_labels(&labels), ds.labels().unwrap());
        assert!(
            ari > 0.9,
            "ARI on circles {ari} — spectral clustering should separate the rings"
        );
    }

    #[test]
    fn recovers_moons() {
        let ds = synthetic::moons(300, 0.05, 3);
        let labels = spectral_clustering(ds.points(), &SpectralConfig::new(2));
        let ari = adjusted_rand_index(&to_pred_labels(&labels), ds.labels().unwrap());
        assert!(ari > 0.85, "ARI on moons {ari}");
    }

    #[test]
    fn label_range_and_count() {
        let ds = synthetic::blobs(90, 2, 3, 0.3, 4);
        let labels = spectral_clustering(ds.points(), &SpectralConfig::new(3));
        assert_eq!(labels.len(), 90);
        assert!(labels.iter().all(|&l| l < 3));
        let distinct: std::collections::HashSet<usize> = labels.iter().copied().collect();
        assert_eq!(distinct.len(), 3);
    }

    #[test]
    #[should_panic]
    fn more_clusters_than_points_panics() {
        let ds = synthetic::blobs(3, 2, 2, 0.3, 5);
        let _ = spectral_clustering(ds.points(), &SpectralConfig::new(10));
    }
}
