//! Principal component analysis by power iteration.
//!
//! The PCA-tree baseline (Sproull-style) splits each node along the top principal
//! direction of the points in the node, and the power-iteration-with-deflation
//! implementation here serves it without a full eigensolver. Spectral clustering does
//! not use it: its affinity matrices have nearly degenerate leading eigenvalues, where
//! power iteration struggles, so it takes the Jacobi decomposition in [`crate::eigen`].

use crate::matrix::{dot, Matrix};
use crate::rng;
use rand::rngs::StdRng;

/// Column means of a data matrix (the centroid of its rows).
pub fn mean_vector(data: &Matrix) -> Vec<f32> {
    data.col_means()
}

/// Result of a PCA computation: the requested leading components and their eigenvalues.
#[derive(Debug, Clone)]
pub struct Pca {
    /// Column means subtracted before projection.
    pub mean: Vec<f32>,
    /// One row per principal component (unit length), in decreasing eigenvalue order.
    pub components: Matrix,
    /// Variance explained by each component.
    pub eigenvalues: Vec<f32>,
}

impl Pca {
    /// Fits the top `k` principal components of the rows of `data`.
    ///
    /// Uses power iteration on the implicit covariance `X_c^T X_c / n` (never
    /// materialising a `d x d` matrix product with `n` terms at once), with Hotelling
    /// deflation between components.
    pub fn fit(data: &Matrix, k: usize, seed: u64) -> Self {
        let n = data.rows();
        let d = data.cols();
        let k = k.min(d).max(1);
        let mean = mean_vector(data);

        // Centered copy of the data.
        let mut centered = data.clone();
        for row in centered.as_mut_slice().chunks_exact_mut(d) {
            for (x, &m) in row.iter_mut().zip(mean.iter()) {
                *x -= m;
            }
        }

        let mut rng: StdRng = rng::seeded(seed);
        let mut components = Matrix::zeros(k, d);
        let mut eigenvalues = vec![0.0f32; k];
        let mut found: Vec<Vec<f32>> = Vec::with_capacity(k);

        for comp in 0..k {
            let mut v = rng::random_unit_vector(&mut rng, d);
            let mut eigenvalue = 0.0f32;
            for _ in 0..60 {
                // w = (X_c^T (X_c v)) / n, then deflate against previously found components.
                let mut xv = vec![0.0f32; n];
                for (i, row) in centered.row_iter().enumerate() {
                    xv[i] = dot(row, &v);
                }
                let mut w = vec![0.0f32; d];
                for (i, row) in centered.row_iter().enumerate() {
                    let c = xv[i];
                    if c == 0.0 {
                        continue;
                    }
                    for (wj, &xj) in w.iter_mut().zip(row.iter()) {
                        *wj += c * xj;
                    }
                }
                let n_f = n.max(1) as f32;
                for wj in &mut w {
                    *wj /= n_f;
                }
                for prev in &found {
                    let proj = dot(&w, prev);
                    for (wj, &pj) in w.iter_mut().zip(prev.iter()) {
                        *wj -= proj * pj;
                    }
                }
                let norm = dot(&w, &w).sqrt();
                if norm < 1e-12 {
                    break;
                }
                eigenvalue = norm;
                for wj in &mut w {
                    *wj /= norm;
                }
                let delta: f32 = v.iter().zip(w.iter()).map(|(a, b)| (a - b).abs()).sum();
                v = w;
                if delta < 1e-6 {
                    break;
                }
            }
            eigenvalues[comp] = eigenvalue;
            components.row_mut(comp).copy_from_slice(&v);
            found.push(v);
        }

        Pca {
            mean,
            components,
            eigenvalues,
        }
    }

    /// Projects a single vector onto the fitted components (subtracting the mean first).
    pub fn project(&self, x: &[f32]) -> Vec<f32> {
        let centered: Vec<f32> = x.iter().zip(self.mean.iter()).map(|(a, m)| a - m).collect();
        self.components
            .row_iter()
            .map(|c| dot(c, &centered))
            .collect()
    }

    /// The first principal direction (convenience accessor for tree splits).
    pub fn first_component(&self) -> &[f32] {
        self.components.row(0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::Rng;

    /// Generates points stretched strongly along a known direction.
    fn anisotropic_data(direction: &[f32], n: usize, seed: u64) -> Matrix {
        let d = direction.len();
        let mut rng = rng::seeded(seed);
        let mut rows = Vec::with_capacity(n);
        for _ in 0..n {
            let main: f32 = rng::normal(&mut rng, 0.0, 10.0);
            let mut row: Vec<f32> = (0..d).map(|_| rng::normal(&mut rng, 0.0, 0.5)).collect();
            for (r, &dir) in row.iter_mut().zip(direction.iter()) {
                *r += main * dir;
            }
            // Translate everything so the mean is clearly nonzero.
            for r in row.iter_mut() {
                *r += 3.0;
            }
            let _: f32 = rng.random();
            rows.push(row);
        }
        Matrix::from_rows(&rows)
    }

    #[test]
    fn recovers_dominant_direction() {
        let dir = {
            let mut v = vec![1.0, 2.0, -1.0, 0.5];
            let n: f32 = v.iter().map(|x| x * x).sum::<f32>().sqrt();
            v.iter_mut().for_each(|x| *x /= n);
            v
        };
        let data = anisotropic_data(&dir, 2000, 17);
        let pca = Pca::fit(&data, 2, 3);
        let c0 = pca.first_component();
        let cosine = dot(c0, &dir).abs();
        assert!(cosine > 0.99, "cosine with true direction = {cosine}");
        assert!(pca.eigenvalues[0] > pca.eigenvalues[1]);
    }

    #[test]
    fn components_are_orthonormal() {
        let data = anisotropic_data(&[0.6, 0.8, 0.0], 500, 5);
        let pca = Pca::fit(&data, 3, 1);
        for i in 0..3 {
            let ci = pca.components.row(i);
            assert!((dot(ci, ci) - 1.0).abs() < 1e-3, "component {i} not unit");
            for j in 0..i {
                let cj = pca.components.row(j);
                assert!(
                    dot(ci, cj).abs() < 1e-2,
                    "components {i},{j} not orthogonal"
                );
            }
        }
    }

    #[test]
    fn projection_of_mean_is_zero() {
        let data = anisotropic_data(&[1.0, 0.0], 200, 9);
        let pca = Pca::fit(&data, 1, 2);
        let proj = pca.project(&pca.mean.clone());
        assert!(proj[0].abs() < 1e-4);
    }

    #[test]
    fn k_clamped_to_dimension() {
        let data = anisotropic_data(&[1.0, 0.0], 50, 2);
        let pca = Pca::fit(&data, 10, 2);
        assert_eq!(pca.components.rows(), 2);
    }
}
