//! Seeded synthetic dataset generators.
//!
//! The paper's large-scale experiments use SIFT1M (1M × 128, many small visual-word-like
//! clusters) and MNIST (60k × 784, ten broad classes with low intrinsic dimensionality).
//! Those exact files are not available in this environment, so `sift_like` and `mnist_like`
//! generate clustered Gaussian-mixture data in the same qualitative regime (see DESIGN.md
//! §1 for the substitution argument). The 2-D generators (`moons`, `circles`, `blobs`,
//! `classification`) mirror scikit-learn's toy datasets used in Table 5.

use rand::rngs::StdRng;
use rand::Rng;
use usp_linalg::{rng as lrng, Matrix};

use crate::dataset::Dataset;

/// Parameters of a Gaussian-mixture generator.
#[derive(Debug, Clone)]
pub struct MixtureSpec {
    /// Number of points to generate.
    pub n: usize,
    /// Dimensionality.
    pub dim: usize,
    /// Number of mixture components (clusters).
    pub n_clusters: usize,
    /// Standard deviation of cluster centres around the origin.
    pub center_spread: f32,
    /// Base within-cluster standard deviation.
    pub cluster_std: f32,
    /// Per-axis anisotropy: each cluster scales each axis by a random factor in
    /// `[1/(1+a), 1+a]`. `0.0` gives spherical clusters.
    pub anisotropy: f32,
    /// RNG seed.
    pub seed: u64,
}

impl MixtureSpec {
    /// Generates the dataset (points are shuffled so suffix query splits are unbiased).
    pub fn generate(&self, name: &str) -> Dataset {
        assert!(self.n_clusters >= 1 && self.dim >= 1 && self.n >= 1);
        let mut rng = lrng::seeded(self.seed);

        // Cluster centres and per-cluster, per-axis scales.
        let centers = lrng::normal_matrix(&mut rng, self.n_clusters, self.dim, self.center_spread);
        let mut scales = Matrix::zeros(self.n_clusters, self.dim);
        for c in 0..self.n_clusters {
            for j in 0..self.dim {
                let f: f32 = if self.anisotropy > 0.0 {
                    let lo = 1.0 / (1.0 + self.anisotropy);
                    let hi = 1.0 + self.anisotropy;
                    lo + (hi - lo) * rng.random::<f32>()
                } else {
                    1.0
                };
                scales[(c, j)] = f * self.cluster_std;
            }
        }

        // Mixture weights: mildly non-uniform, as in real data.
        let mut weights: Vec<f32> = (0..self.n_clusters)
            .map(|_| 0.5 + rng.random::<f32>())
            .collect();
        let total: f32 = weights.iter().sum();
        weights.iter_mut().for_each(|w| *w /= total);

        let mut points = Matrix::zeros(self.n, self.dim);
        let mut labels = Vec::with_capacity(self.n);
        for i in 0..self.n {
            let c = sample_categorical(&mut rng, &weights);
            labels.push(c);
            let row = points.row_mut(i);
            for j in 0..self.dim {
                row[j] = centers[(c, j)] + lrng::standard_normal(&mut rng) * scales[(c, j)];
            }
        }

        // Shuffle points (and labels) so that a suffix split is a random split.
        let mut perm: Vec<usize> = (0..self.n).collect();
        lrng::shuffle(&mut rng, &mut perm);
        let shuffled = points.select_rows(&perm);
        let shuffled_labels: Vec<usize> = perm.iter().map(|&i| labels[i]).collect();
        Dataset::with_labels(name, shuffled, shuffled_labels)
    }
}

fn sample_categorical<R: Rng + ?Sized>(rng: &mut R, weights: &[f32]) -> usize {
    let u: f32 = rng.random::<f32>();
    let mut acc = 0.0;
    for (i, &w) in weights.iter().enumerate() {
        acc += w;
        if u <= acc {
            return i;
        }
    }
    weights.len() - 1
}

/// A SIFT-like workload: many anisotropic clusters in a moderate-dimensional space.
///
/// Real SIFT descriptors form a large number of local "visual word" clusters; partitioning
/// quality experiments only need that clustered, anisotropic structure.
pub fn sift_like(n: usize, dim: usize, seed: u64) -> Dataset {
    MixtureSpec {
        n,
        dim,
        n_clusters: (n / 500).clamp(16, 256),
        center_spread: 6.0,
        cluster_std: 1.6,
        anisotropy: 1.2,
        seed,
    }
    .generate("sift-like")
}

/// An MNIST-like workload: few broad classes, higher ambient dimension, low intrinsic
/// dimensionality (points live near class-specific low-dimensional subspaces).
pub fn mnist_like(n: usize, dim: usize, seed: u64) -> Dataset {
    let n_classes = 10usize;
    let intrinsic = (dim / 8).max(2);
    let mut rng = lrng::seeded(seed);
    let mut points = Matrix::zeros(n, dim);
    let mut labels = Vec::with_capacity(n);
    // Each class: a random affine map from a low-dimensional latent space into R^dim.
    let mut class_maps = Vec::with_capacity(n_classes);
    let mut class_offsets = Vec::with_capacity(n_classes);
    for _ in 0..n_classes {
        class_maps.push(lrng::normal_matrix(&mut rng, intrinsic, dim, 1.0));
        class_offsets.push(
            lrng::normal_vector(&mut rng, dim)
                .iter()
                .map(|x| x * 4.0)
                .collect::<Vec<f32>>(),
        );
    }
    for i in 0..n {
        let c = rng.random_range(0..n_classes);
        labels.push(c);
        let latent = lrng::normal_vector(&mut rng, intrinsic);
        let row = points.row_mut(i);
        for j in 0..dim {
            let mut v = class_offsets[c][j];
            for (l, &z) in latent.iter().enumerate() {
                v += z * class_maps[c][(l, j)];
            }
            // small ambient noise
            v += 0.3 * lrng::standard_normal(&mut rng);
            row[j] = v;
        }
    }
    let mut perm: Vec<usize> = (0..n).collect();
    lrng::shuffle(&mut rng, &mut perm);
    let shuffled = points.select_rows(&perm);
    let shuffled_labels: Vec<usize> = perm.iter().map(|&i| labels[i]).collect();
    Dataset::with_labels("mnist-like", shuffled, shuffled_labels)
}

/// Two interleaving half-moons in 2-D (scikit-learn `make_moons`).
pub fn moons(n: usize, noise: f32, seed: u64) -> Dataset {
    let mut rng = lrng::seeded(seed);
    let half = n / 2;
    let mut rows = Vec::with_capacity(n);
    let mut labels = Vec::with_capacity(n);
    for i in 0..n {
        let (x, y, label) = if i < half {
            let t = std::f32::consts::PI * (i as f32 / half.max(1) as f32);
            (t.cos(), t.sin(), 0)
        } else {
            let t = std::f32::consts::PI * ((i - half) as f32 / (n - half).max(1) as f32);
            (1.0 - t.cos(), 0.5 - t.sin(), 1)
        };
        rows.push(vec![
            x + noise * lrng::standard_normal(&mut rng),
            y + noise * lrng::standard_normal(&mut rng),
        ]);
        labels.push(label);
    }
    shuffle_labelled(&mut rng, "moons", rows, labels)
}

/// Two concentric circles in 2-D (scikit-learn `make_circles`).
pub fn circles(n: usize, noise: f32, factor: f32, seed: u64) -> Dataset {
    let mut rng = lrng::seeded(seed);
    let half = n / 2;
    let mut rows = Vec::with_capacity(n);
    let mut labels = Vec::with_capacity(n);
    for i in 0..n {
        let (radius, label) = if i < half { (1.0, 0) } else { (factor, 1) };
        let t = 2.0 * std::f32::consts::PI * rng.random::<f32>();
        rows.push(vec![
            radius * t.cos() + noise * lrng::standard_normal(&mut rng),
            radius * t.sin() + noise * lrng::standard_normal(&mut rng),
        ]);
        labels.push(label);
    }
    shuffle_labelled(&mut rng, "circles", rows, labels)
}

/// Isotropic Gaussian blobs (scikit-learn `make_blobs`).
pub fn blobs(n: usize, dim: usize, n_clusters: usize, cluster_std: f32, seed: u64) -> Dataset {
    MixtureSpec {
        n,
        dim,
        n_clusters,
        center_spread: 8.0,
        cluster_std,
        anisotropy: 0.0,
        seed,
    }
    .generate("blobs")
}

/// A harder labelled dataset in the spirit of scikit-learn `make_classification` with
/// four clusters: anisotropic clusters with partially overlapping boundaries.
pub fn classification(n: usize, dim: usize, seed: u64) -> Dataset {
    let mut ds = MixtureSpec {
        n,
        dim,
        n_clusters: 4,
        center_spread: 3.0,
        cluster_std: 1.0,
        anisotropy: 2.0,
        seed,
    }
    .generate("classification");
    // Rename for reporting purposes.
    let labels = ds.labels().map(|l| l.to_vec());
    ds = match labels {
        Some(l) => Dataset::with_labels("classification", ds.points().clone(), l),
        None => Dataset::new("classification", ds.points().clone()),
    };
    ds
}

fn shuffle_labelled(
    rng: &mut StdRng,
    name: &str,
    rows: Vec<Vec<f32>>,
    labels: Vec<usize>,
) -> Dataset {
    let n = rows.len();
    let points = Matrix::from_rows(&rows);
    let mut perm: Vec<usize> = (0..n).collect();
    lrng::shuffle(rng, &mut perm);
    let shuffled = points.select_rows(&perm);
    let shuffled_labels: Vec<usize> = perm.iter().map(|&i| labels[i]).collect();
    Dataset::with_labels(name, shuffled, shuffled_labels)
}

/// Uniform random points in `[0, 1]^dim` (a worst case for data-dependent partitioning).
pub fn uniform(n: usize, dim: usize, seed: u64) -> Dataset {
    let mut rng = lrng::seeded(seed);
    let data: Vec<f32> = (0..n * dim).map(|_| rng.random::<f32>()).collect();
    Dataset::new("uniform", Matrix::from_vec(n, dim, data))
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::HashSet;

    #[test]
    fn mixture_shapes_and_determinism() {
        let a = sift_like(500, 16, 7);
        let b = sift_like(500, 16, 7);
        let c = sift_like(500, 16, 8);
        assert_eq!(a.len(), 500);
        assert_eq!(a.dim(), 16);
        assert_eq!(a.points().as_slice(), b.points().as_slice());
        assert_ne!(a.points().as_slice(), c.points().as_slice());
        assert_eq!(a.labels().unwrap().len(), 500);
    }

    #[test]
    fn mnist_like_has_ten_classes() {
        let d = mnist_like(800, 32, 3);
        let classes: HashSet<usize> = d.labels().unwrap().iter().copied().collect();
        assert_eq!(classes.len(), 10);
        assert_eq!(d.dim(), 32);
    }

    #[test]
    fn clusters_are_separated_in_blobs() {
        let d = blobs(400, 8, 4, 0.3, 11);
        let labels = d.labels().unwrap();
        // Compute mean intra-cluster vs overall variance: clusters must be tighter.
        let overall_centroid: Vec<f32> = d.points().col_means();
        let mut intra = 0.0f64;
        let mut total = 0.0f64;
        let mut centroids = vec![vec![0.0f32; d.dim()]; 4];
        let mut counts = [0usize; 4];
        for i in 0..d.len() {
            counts[labels[i]] += 1;
            for j in 0..d.dim() {
                centroids[labels[i]][j] += d.point(i)[j];
            }
        }
        for c in 0..4 {
            for j in 0..d.dim() {
                centroids[c][j] /= counts[c].max(1) as f32;
            }
        }
        for i in 0..d.len() {
            intra +=
                usp_linalg::distance::squared_euclidean(d.point(i), &centroids[labels[i]]) as f64;
            total += usp_linalg::distance::squared_euclidean(d.point(i), &overall_centroid) as f64;
        }
        assert!(
            intra * 5.0 < total,
            "clusters not separated: intra {intra} total {total}"
        );
    }

    #[test]
    fn moons_and_circles_are_2d_two_class() {
        for d in [moons(200, 0.05, 1), circles(200, 0.05, 0.5, 1)] {
            assert_eq!(d.dim(), 2);
            let classes: HashSet<usize> = d.labels().unwrap().iter().copied().collect();
            assert_eq!(classes.len(), 2);
        }
    }

    #[test]
    fn circles_radii_are_distinct() {
        let d = circles(400, 0.0, 0.5, 2);
        let labels = d.labels().unwrap();
        for i in 0..d.len() {
            let r = (d.point(i)[0].powi(2) + d.point(i)[1].powi(2)).sqrt();
            if labels[i] == 0 {
                assert!((r - 1.0).abs() < 0.05);
            } else {
                assert!((r - 0.5).abs() < 0.05);
            }
        }
    }

    #[test]
    fn classification_has_four_clusters() {
        let d = classification(300, 6, 5);
        let classes: HashSet<usize> = d.labels().unwrap().iter().copied().collect();
        assert_eq!(classes.len(), 4);
        assert_eq!(d.name(), "classification");
    }

    #[test]
    fn uniform_is_in_unit_cube() {
        let d = uniform(100, 5, 3);
        assert!(d
            .points()
            .as_slice()
            .iter()
            .all(|&x| (0.0..=1.0).contains(&x)));
        assert!(d.labels().is_none());
    }
}
