//! Seeded random-number helpers.
//!
//! Every experiment in the workspace is seeded so that tables and figures are exactly
//! reproducible run-to-run. Gaussian sampling is implemented with Box–Muller so that the
//! workspace only depends on `rand` itself (no `rand_distr`).

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use crate::matrix::Matrix;

/// Creates a deterministic RNG from a 64-bit seed.
pub fn seeded(seed: u64) -> StdRng {
    StdRng::seed_from_u64(seed)
}

/// Draws one standard-normal sample using the Box–Muller transform.
#[inline]
pub fn standard_normal<R: Rng + ?Sized>(rng: &mut R) -> f32 {
    // Avoid ln(0) by sampling u1 from the half-open interval (0, 1].
    let u1: f32 = 1.0 - rng.random::<f32>();
    let u2: f32 = rng.random::<f32>();
    (-2.0 * u1.ln()).sqrt() * (2.0 * std::f32::consts::PI * u2).cos()
}

/// Draws a normal sample with the given mean and standard deviation.
#[inline]
pub fn normal<R: Rng + ?Sized>(rng: &mut R, mean: f32, std_dev: f32) -> f32 {
    mean + std_dev * standard_normal(rng)
}

/// Fills a vector of length `n` with standard-normal samples.
pub fn normal_vector<R: Rng + ?Sized>(rng: &mut R, n: usize) -> Vec<f32> {
    (0..n).map(|_| standard_normal(rng)).collect()
}

/// A `rows x cols` matrix of i.i.d. `N(0, std_dev^2)` entries.
pub fn normal_matrix<R: Rng + ?Sized>(
    rng: &mut R,
    rows: usize,
    cols: usize,
    std_dev: f32,
) -> Matrix {
    let data = (0..rows * cols)
        .map(|_| std_dev * standard_normal(rng))
        .collect();
    Matrix::from_vec(rows, cols, data)
}

/// A random unit vector of dimension `d` (direction uniform on the sphere).
pub fn random_unit_vector<R: Rng + ?Sized>(rng: &mut R, d: usize) -> Vec<f32> {
    loop {
        let v = normal_vector(rng, d);
        let norm: f32 = v.iter().map(|x| x * x).sum::<f32>().sqrt();
        if norm > 1e-6 {
            return v.into_iter().map(|x| x / norm).collect();
        }
    }
}

/// Fisher–Yates shuffle of a slice of indices.
pub fn shuffle<R: Rng + ?Sized, T>(rng: &mut R, items: &mut [T]) {
    let n = items.len();
    if n <= 1 {
        return;
    }
    for i in (1..n).rev() {
        let j = rng.random_range(0..=i);
        items.swap(i, j);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::stats::{mean, std_dev as sd};

    #[test]
    fn seeded_is_deterministic() {
        let a: Vec<f32> = normal_vector(&mut seeded(7), 16);
        let b: Vec<f32> = normal_vector(&mut seeded(7), 16);
        assert_eq!(a, b);
        let c: Vec<f32> = normal_vector(&mut seeded(8), 16);
        assert_ne!(a, c);
    }

    #[test]
    fn standard_normal_has_roughly_unit_moments() {
        let mut rng = seeded(42);
        let samples = normal_vector(&mut rng, 20_000);
        assert!(mean(&samples).abs() < 0.05, "mean {}", mean(&samples));
        assert!((sd(&samples) - 1.0).abs() < 0.05, "std {}", sd(&samples));
    }

    #[test]
    fn normal_respects_mean_and_std() {
        let mut rng = seeded(1);
        let samples: Vec<f32> = (0..20_000).map(|_| normal(&mut rng, 3.0, 0.5)).collect();
        assert!((mean(&samples) - 3.0).abs() < 0.05);
        assert!((sd(&samples) - 0.5).abs() < 0.05);
    }

    #[test]
    fn unit_vector_has_unit_norm() {
        let mut rng = seeded(3);
        for d in [1usize, 2, 8, 100] {
            let v = random_unit_vector(&mut rng, d);
            let n: f32 = v.iter().map(|x| x * x).sum::<f32>().sqrt();
            assert!((n - 1.0).abs() < 1e-5);
        }
    }

    #[test]
    fn shuffle_is_a_permutation() {
        let mut rng = seeded(11);
        let mut v: Vec<usize> = (0..50).collect();
        shuffle(&mut rng, &mut v);
        let mut sorted = v.clone();
        sorted.sort_unstable();
        assert_eq!(sorted, (0..50).collect::<Vec<_>>());
    }

    #[test]
    fn normal_matrix_shape_and_scale() {
        let mut rng = seeded(5);
        let m = normal_matrix(&mut rng, 50, 40, 2.0);
        assert_eq!(m.shape(), (50, 40));
        let s = sd(m.as_slice());
        assert!((s - 2.0).abs() < 0.1, "std {s}");
    }
}
