//! Score-aware (anisotropic) vector quantization, as used by ScaNN.
//!
//! Guo et al. ("Accelerating Large-Scale Inference with Anisotropic Vector Quantization",
//! 2020) observe that for maximum-inner-product / nearest-neighbour search the
//! quantization error component *parallel* to the data point changes scores much more than
//! the orthogonal component, and therefore train codebooks under the weighted loss
//!
//! `L(x, c) = η · ‖P_x (x − c)‖² + ‖(I − P_x)(x − c)‖²`,  `P_x = x̂ x̂ᵀ`,  `η ≥ 1`.
//!
//! This module trains a codebook under that loss with a Lloyd-style alternation:
//! assignment by anisotropic loss, then a closed-form centroid update obtained by solving
//! the per-centroid normal equations `(Σᵢ Mᵢ) c = Σᵢ Mᵢ xᵢ` with `Mᵢ = I + (η−1) Pᵢ`.

use usp_linalg::Matrix;

use crate::kmeans::{KMeans, KMeansConfig};

/// Configuration of the anisotropic codebook trainer.
#[derive(Debug, Clone)]
pub struct AnisotropicConfig {
    /// Parallel-error weight η (η = 1 recovers plain k-means; ScaNN defaults around 2–5).
    pub eta: f32,
    /// Number of assignment/update alternations after the k-means warm start.
    pub max_iters: usize,
    /// RNG seed for the warm start.
    pub seed: u64,
}

impl Default for AnisotropicConfig {
    fn default() -> Self {
        Self {
            eta: 4.0,
            max_iters: 10,
            seed: 42,
        }
    }
}

/// The anisotropic quantization loss between a data point and a centroid.
pub fn anisotropic_loss(x: &[f32], c: &[f32], eta: f32) -> f32 {
    let norm_sq: f32 = x.iter().map(|v| v * v).sum();
    let r: Vec<f32> = x.iter().zip(c).map(|(a, b)| a - b).collect();
    if norm_sq <= 1e-12 {
        return r.iter().map(|v| v * v).sum();
    }
    let proj: f32 = r.iter().zip(x).map(|(rv, xv)| rv * xv).sum::<f32>() / norm_sq;
    let mut parallel = 0.0f32;
    let mut orthogonal = 0.0f32;
    for (rv, xv) in r.iter().zip(x) {
        let p = proj * xv;
        parallel += p * p;
        let o = rv - p;
        orthogonal += o * o;
    }
    eta * parallel + orthogonal
}

/// Index of the centroid (row of `codebook`) with the smallest anisotropic loss for `x`.
pub fn assign(x: &[f32], codebook: &Matrix, eta: f32) -> usize {
    let mut best = 0usize;
    let mut best_l = f32::INFINITY;
    for c in 0..codebook.rows() {
        let l = anisotropic_loss(x, codebook.row(c), eta);
        if l < best_l {
            best_l = l;
            best = c;
        }
    }
    best
}

/// Trains a `k`-centroid codebook for the rows of `data` under the anisotropic loss.
pub fn train_codebook(data: &Matrix, k: usize, config: &AnisotropicConfig) -> Matrix {
    let n = data.rows();
    let d = data.cols();
    assert!(n > 0, "train_codebook: empty data");
    let k = k.clamp(1, n);

    // Warm start from ordinary k-means.
    let km = KMeans::fit(
        data,
        &KMeansConfig {
            k,
            max_iters: 15,
            tol: 1e-3,
            seed: config.seed,
        },
    );
    let mut codebook = km.centroids;

    for _ in 0..config.max_iters {
        // Assignment under the anisotropic loss.
        let assignments: Vec<usize> = (0..n)
            .map(|i| assign(data.row(i), &codebook, config.eta))
            .collect();

        // Closed-form update per centroid: (Σ M_i) c = Σ M_i x_i, M_i = I + (η−1) x̂ x̂ᵀ.
        for c in 0..k {
            let members: Vec<usize> = (0..n).filter(|&i| assignments[i] == c).collect();
            if members.is_empty() {
                continue;
            }
            let mut a = vec![vec![0.0f64; d]; d];
            let mut b = vec![0.0f64; d];
            for &i in &members {
                let x = data.row(i);
                let norm_sq: f64 = x.iter().map(|&v| (v as f64) * v as f64).sum();
                // M = I + (eta-1) * (x x^T) / ||x||^2
                let scale = if norm_sq > 1e-12 {
                    (config.eta as f64 - 1.0) / norm_sq
                } else {
                    0.0
                };
                for r in 0..d {
                    for cidx in 0..d {
                        let m = if r == cidx { 1.0 } else { 0.0 }
                            + scale * x[r] as f64 * x[cidx] as f64;
                        a[r][cidx] += m;
                        b[r] += m * x[cidx] as f64;
                    }
                }
            }
            if let Some(solution) = solve_linear(a, b) {
                for (j, v) in solution.into_iter().enumerate() {
                    codebook[(c, j)] = v as f32;
                }
            }
        }
    }
    codebook
}

/// Total anisotropic loss of a dataset against its assigned codebook entries.
pub fn total_loss(data: &Matrix, codebook: &Matrix, eta: f32) -> f64 {
    (0..data.rows())
        .map(|i| {
            let x = data.row(i);
            anisotropic_loss(x, codebook.row(assign(x, codebook, eta)), eta) as f64
        })
        .sum()
}

/// Solves `A x = b` by Gaussian elimination with partial pivoting. Returns `None` when the
/// system is (numerically) singular.
fn solve_linear(mut a: Vec<Vec<f64>>, mut b: Vec<f64>) -> Option<Vec<f64>> {
    let n = b.len();
    for col in 0..n {
        // Pivot.
        let mut pivot = col;
        for r in col + 1..n {
            if a[r][col].abs() > a[pivot][col].abs() {
                pivot = r;
            }
        }
        if a[pivot][col].abs() < 1e-12 {
            return None;
        }
        a.swap(col, pivot);
        b.swap(col, pivot);
        // Eliminate below.
        for r in col + 1..n {
            let factor = a[r][col] / a[col][col];
            if factor == 0.0 {
                continue;
            }
            for c in col..n {
                a[r][c] -= factor * a[col][c];
            }
            b[r] -= factor * b[col];
        }
    }
    // Back substitution.
    let mut x = vec![0.0f64; n];
    for col in (0..n).rev() {
        let mut acc = b[col];
        for c in col + 1..n {
            acc -= a[col][c] * x[c];
        }
        x[col] = acc / a[col][col];
    }
    Some(x)
}

#[cfg(test)]
mod tests {
    use super::*;
    use usp_linalg::{distance, rng as lrng};

    #[test]
    fn solve_linear_known_system() {
        // 2x + y = 5 ; x + 3y = 10  =>  x = 1, y = 3
        let a = vec![vec![2.0, 1.0], vec![1.0, 3.0]];
        let b = vec![5.0, 10.0];
        let x = solve_linear(a, b).unwrap();
        assert!((x[0] - 1.0).abs() < 1e-9);
        assert!((x[1] - 3.0).abs() < 1e-9);
    }

    #[test]
    fn solve_linear_singular_returns_none() {
        let a = vec![vec![1.0, 2.0], vec![2.0, 4.0]];
        assert!(solve_linear(a, vec![1.0, 2.0]).is_none());
    }

    #[test]
    fn loss_reduces_to_euclidean_when_eta_is_one() {
        let x = [1.0f32, 2.0, -1.0];
        let c = [0.5f32, 1.0, 0.0];
        let expected = distance::squared_euclidean(&x, &c);
        assert!((anisotropic_loss(&x, &c, 1.0) - expected).abs() < 1e-5);
    }

    #[test]
    fn parallel_error_costs_more_than_orthogonal() {
        // x along e1; centroid displaced by the same amount either parallel or orthogonal.
        let x = [2.0f32, 0.0];
        let parallel_c = [1.5f32, 0.0];
        let orthogonal_c = [2.0f32, 0.5];
        let eta = 4.0;
        assert!(anisotropic_loss(&x, &parallel_c, eta) > anisotropic_loss(&x, &orthogonal_c, eta));
        // With eta = 1 both displacements cost the same.
        assert!(
            (anisotropic_loss(&x, &parallel_c, 1.0) - anisotropic_loss(&x, &orthogonal_c, 1.0))
                .abs()
                < 1e-6
        );
    }

    #[test]
    fn zero_vector_falls_back_to_euclidean() {
        let x = [0.0f32, 0.0];
        let c = [1.0f32, 1.0];
        assert!((anisotropic_loss(&x, &c, 8.0) - 2.0).abs() < 1e-6);
    }

    #[test]
    fn training_reduces_anisotropic_loss_vs_kmeans_codebook() {
        let mut rng = lrng::seeded(11);
        // Points spread on a shell-ish cloud so directions matter.
        let n = 300;
        let d = 6;
        let mut data = Matrix::zeros(n, d);
        for i in 0..n {
            for j in 0..d {
                data[(i, j)] = lrng::standard_normal(&mut rng) + if j == 0 { 3.0 } else { 0.0 };
            }
        }
        let eta = 6.0;
        let km = KMeans::fit(
            &data,
            &KMeansConfig {
                k: 8,
                max_iters: 20,
                tol: 1e-4,
                seed: 1,
            },
        );
        let aniso = train_codebook(
            &data,
            8,
            &AnisotropicConfig {
                eta,
                max_iters: 8,
                seed: 1,
            },
        );
        let loss_km = total_loss(&data, &km.centroids, eta);
        let loss_an = total_loss(&data, &aniso, eta);
        assert!(
            loss_an < loss_km,
            "anisotropic training did not reduce the score-aware loss: {loss_an} vs {loss_km}"
        );
    }

    #[test]
    fn assign_picks_minimum_loss_centroid() {
        let codebook = Matrix::from_vec(2, 2, vec![1.0, 0.0, 0.0, 1.0]);
        // x close in direction to e1.
        assert_eq!(assign(&[2.0, 0.1], &codebook, 4.0), 0);
        assert_eq!(assign(&[0.1, 2.0], &codebook, 4.0), 1);
    }
}
