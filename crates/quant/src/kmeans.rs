//! Lloyd's k-means with k-means++ seeding.
//!
//! K-means appears in three roles in the paper's evaluation: as the dominant classical
//! partitioning baseline (Figures 5, Table 2/4), as the coarse quantizer of IVF/ScaNN-style
//! systems (Figure 7), and as the per-subspace codebook trainer of product quantization.
//! This single implementation serves all three.

use rand::rngs::StdRng;
use rand::Rng;
use rayon::prelude::*;
use usp_linalg::kernel_columns::{nearest_column, squared_euclidean_to_columns};
use usp_linalg::{rng as lrng, Matrix};

/// Points per task of a Lloyd iteration, which assigns them and sums them per centroid.
/// Fixed (never derived from the thread count) so centroid sums merge in the same order
/// on any pool size.
const UPDATE_CHUNK: usize = 1024;

/// K-means configuration.
#[derive(Debug, Clone)]
pub struct KMeansConfig {
    /// Number of clusters.
    pub k: usize,
    /// Maximum number of Lloyd iterations.
    pub max_iters: usize,
    /// Convergence tolerance on the relative change of inertia.
    pub tol: f64,
    /// RNG seed (k-means++ seeding and empty-cluster reseeding).
    pub seed: u64,
}

impl KMeansConfig {
    /// A reasonable default configuration.
    pub fn new(k: usize) -> Self {
        Self {
            k,
            max_iters: 50,
            tol: 1e-4,
            seed: 42,
        }
    }
}

/// A fitted k-means model.
#[derive(Debug, Clone)]
pub struct KMeans {
    /// Cluster centroids, one per row.
    pub centroids: Matrix,
    /// Final within-cluster sum of squared distances.
    pub inertia: f64,
    /// Number of Lloyd iterations actually run.
    pub iterations: usize,
    /// `centroids` transposed (one row per coordinate), made once by `fit`: the layout
    /// [`nearest_column`] scores a query against in [`KMeans::assign`] and
    /// [`KMeans::scores`].
    columns: Matrix,
}

impl KMeans {
    /// Fits k-means to the rows of `data`.
    ///
    /// # Panics
    /// If `data` has no rows, or a coordinate that is NaN or infinite: a non-finite
    /// distance makes the k-means++ draw's total NaN and every Lloyd inertia `+∞`, so the
    /// fit would return copies of one row instead of an answer.
    pub fn fit(data: &Matrix, config: &KMeansConfig) -> Self {
        let n = data.rows();
        let d = data.cols();
        assert!(n > 0, "KMeans::fit: empty dataset");
        if let Some(at) = data.as_slice().iter().position(|v| !v.is_finite()) {
            panic!(
                "KMeans::fit: row {} column {} is {}; k-means needs finite coordinates",
                at / d,
                at % d,
                data.as_slice()[at]
            );
        }
        let k = config.k.clamp(1, n);
        let mut rng = lrng::seeded(config.seed);

        let mut centroids = kmeanspp_init(data, k, &mut rng);
        let mut inertia = f64::INFINITY;
        let mut nearest = vec![0.0f32; n];
        let mut iterations = 0usize;

        for iter in 0..config.max_iters {
            iterations = iter + 1;
            // One pool region per iteration: each chunk of points is assigned against
            // the centroids laid out column-major and summed into its own partial while
            // its rows are in cache. The chunk width is a fixed constant (not derived
            // from the thread count), so the floating-point merge tree — and therefore
            // the centroids — are identical for every pool size.
            let columns = centroids.transpose();
            let partials: Vec<(Matrix, Vec<usize>)> = nearest
                .par_chunks_mut(UPDATE_CHUNK)
                .enumerate()
                .map(|(ci, dists)| {
                    let base = ci * UPDATE_CHUNK;
                    let mut sums = Matrix::zeros(k, d);
                    let mut counts = vec![0usize; k];
                    for (off, dist) in dists.iter_mut().enumerate() {
                        let row = data.row(base + off);
                        let (c, to_c) = nearest_column(row, columns.as_slice(), k);
                        *dist = to_c;
                        counts[c] += 1;
                        for (sv, &v) in sums.row_mut(c).iter_mut().zip(row) {
                            *sv += v;
                        }
                    }
                    (sums, counts)
                })
                .collect();
            let new_inertia: f64 = nearest.iter().map(|&d| d as f64).sum();
            let mut sums = Matrix::zeros(k, d);
            let mut counts = vec![0usize; k];
            for (partial_sums, partial_counts) in partials {
                sums.add_assign(&partial_sums);
                for (total, part) in counts.iter_mut().zip(&partial_counts) {
                    *total += part;
                }
            }
            for c in 0..k {
                if counts[c] == 0 {
                    // Reseed an empty cluster at a random data point.
                    let idx = rng.random_range(0..n);
                    centroids.row_mut(c).copy_from_slice(data.row(idx));
                } else {
                    let inv = 1.0 / counts[c] as f32;
                    for (cv, &sv) in centroids.row_mut(c).iter_mut().zip(sums.row(c)) {
                        *cv = sv * inv;
                    }
                }
            }

            let rel_change = (inertia - new_inertia).abs() / new_inertia.max(1e-12);
            inertia = new_inertia;
            if rel_change < config.tol {
                break;
            }
        }

        Self {
            columns: centroids.transpose(),
            centroids,
            inertia,
            iterations,
        }
    }

    /// Number of clusters.
    pub fn k(&self) -> usize {
        self.centroids.rows()
    }

    /// Index of the nearest centroid to a point (the first of equally near ones).
    ///
    /// # Panics
    /// If `point` is not as long as a centroid.
    pub fn assign(&self, point: &[f32]) -> usize {
        nearest_column(point, self.columns.as_slice(), self.k()).0
    }

    /// Negative distances to every centroid (larger = closer), usable as bin scores.
    ///
    /// # Panics
    /// If `point` is not as long as a centroid.
    pub fn scores(&self, point: &[f32]) -> Vec<f32> {
        let mut scores = vec![0.0f32; self.k()];
        squared_euclidean_to_columns(point, self.columns.as_slice(), &mut scores);
        for s in &mut scores {
            *s = -*s;
        }
        scores
    }

    /// Assigns every row of a matrix (parallel).
    pub fn assign_all(&self, data: &Matrix) -> Vec<usize> {
        (0..data.rows())
            .into_par_iter()
            .map(|i| self.assign(data.row(i)))
            .collect()
    }
}

/// k-means++ seeding: the first centre is uniform, each subsequent centre is sampled with
/// probability proportional to its squared distance to the nearest chosen centre.
///
/// Distances are taken one centre against every point, with the points transposed once
/// so that each lane of [`squared_euclidean_to_columns`] is a point.
fn kmeanspp_init(data: &Matrix, k: usize, rng: &mut StdRng) -> Matrix {
    let n = data.rows();
    let columns = data.transpose();
    let mut centroids = Matrix::zeros(k, data.cols());
    let first = rng.random_range(0..n);
    centroids.row_mut(0).copy_from_slice(data.row(first));

    let mut min_dist = vec![0.0f32; n];
    squared_euclidean_to_columns(centroids.row(0), columns.as_slice(), &mut min_dist);
    let mut dist = vec![0.0f32; n];

    for c in 1..k {
        let total: f64 = min_dist.iter().map(|&d| d as f64).sum();
        let chosen = if total <= 0.0 {
            rng.random_range(0..n)
        } else {
            let mut target = rng.random::<f64>() * total;
            let mut pick = n - 1;
            for (i, &d) in min_dist.iter().enumerate() {
                target -= d as f64;
                if target <= 0.0 {
                    pick = i;
                    break;
                }
            }
            pick
        };
        centroids.row_mut(c).copy_from_slice(data.row(chosen));
        squared_euclidean_to_columns(centroids.row(c), columns.as_slice(), &mut dist);
        for (m, &d) in min_dist.iter_mut().zip(&dist) {
            if d < *m {
                *m = d;
            }
        }
    }
    centroids
}

#[cfg(test)]
mod tests {
    use super::*;
    use usp_linalg::distance;

    fn four_blobs(per: usize, seed: u64) -> (Matrix, Vec<usize>) {
        let centers = [[0.0f32, 0.0], [10.0, 0.0], [0.0, 10.0], [10.0, 10.0]];
        let mut rng = lrng::seeded(seed);
        let mut rows = Vec::new();
        let mut labels = Vec::new();
        for (ci, c) in centers.iter().enumerate() {
            for _ in 0..per {
                rows.push(vec![
                    c[0] + 0.5 * lrng::standard_normal(&mut rng),
                    c[1] + 0.5 * lrng::standard_normal(&mut rng),
                ]);
                labels.push(ci);
            }
        }
        (Matrix::from_rows(&rows), labels)
    }

    #[test]
    fn recovers_well_separated_blobs() {
        let (data, labels) = four_blobs(50, 3);
        let km = KMeans::fit(&data, &KMeansConfig::new(4));
        let assignments = km.assign_all(&data);
        // Every generative cluster maps to exactly one k-means cluster.
        for target in 0..4 {
            let assigned: std::collections::HashSet<usize> = labels
                .iter()
                .zip(&assignments)
                .filter(|(&l, _)| l == target)
                .map(|(_, &a)| a)
                .collect();
            assert_eq!(
                assigned.len(),
                1,
                "generative cluster {target} split across {assigned:?}"
            );
        }
        assert!(km.inertia < 200.0 * 2.0, "inertia too high: {}", km.inertia);
    }

    #[test]
    fn assign_matches_nearest_centroid_scores() {
        let (data, _) = four_blobs(30, 5);
        let km = KMeans::fit(&data, &KMeansConfig::new(4));
        let p = data.row(7);
        let scores = km.scores(p);
        assert_eq!(Some(km.assign(p)), usp_linalg::topk::argmax(&scores));
        assert_eq!(scores.len(), 4);
    }

    #[test]
    fn k_clamped_to_dataset_size() {
        let data = Matrix::from_vec(3, 1, vec![0.0, 1.0, 2.0]);
        let km = KMeans::fit(&data, &KMeansConfig::new(10));
        assert_eq!(km.k(), 3);
    }

    #[test]
    fn deterministic_for_fixed_seed() {
        let (data, _) = four_blobs(20, 7);
        let a = KMeans::fit(&data, &KMeansConfig::new(4));
        let b = KMeans::fit(&data, &KMeansConfig::new(4));
        assert_eq!(a.centroids, b.centroids);
    }

    #[test]
    fn inertia_decreases_with_more_clusters() {
        let (data, _) = four_blobs(25, 9);
        let k2 = KMeans::fit(&data, &KMeansConfig::new(2));
        let k8 = KMeans::fit(&data, &KMeansConfig::new(8));
        assert!(k8.inertia < k2.inertia);
    }

    /// `KMeans::fit` as it was before the column kernels: one `squared_euclidean` per
    /// (point, centroid) pair in the assignment step and in the seeding, and the update
    /// step reading each centroid's sum through a copy. The oracle of the test below.
    fn fit_per_pair(data: &Matrix, config: &KMeansConfig) -> (Matrix, f64, usize) {
        let (n, d) = (data.rows(), data.cols());
        let k = config.k.clamp(1, n);
        let mut rng = lrng::seeded(config.seed);
        let mut centroids = Matrix::zeros(k, d);
        let first = rng.random_range(0..n);
        centroids.row_mut(0).copy_from_slice(data.row(first));
        let mut min_dist: Vec<f32> = (0..n)
            .map(|i| distance::squared_euclidean(data.row(i), centroids.row(0)))
            .collect();
        for c in 1..k {
            let total: f64 = min_dist.iter().map(|&d| d as f64).sum();
            let chosen = if total <= 0.0 {
                rng.random_range(0..n)
            } else {
                let mut target = rng.random::<f64>() * total;
                let mut pick = n - 1;
                for (i, &d) in min_dist.iter().enumerate() {
                    target -= d as f64;
                    if target <= 0.0 {
                        pick = i;
                        break;
                    }
                }
                pick
            };
            centroids.row_mut(c).copy_from_slice(data.row(chosen));
            for i in 0..n {
                let d = distance::squared_euclidean(data.row(i), centroids.row(c));
                if d < min_dist[i] {
                    min_dist[i] = d;
                }
            }
        }
        let (mut inertia, mut iterations) = (f64::INFINITY, 0usize);
        for iter in 0..config.max_iters {
            iterations = iter + 1;
            let new: Vec<(usize, f32)> = (0..n)
                .map(|i| {
                    let (mut best, mut best_d) = (0usize, f32::INFINITY);
                    for c in 0..k {
                        let dist = distance::squared_euclidean(data.row(i), centroids.row(c));
                        if dist < best_d {
                            best_d = dist;
                            best = c;
                        }
                    }
                    (best, best_d)
                })
                .collect();
            let new_inertia: f64 = new.iter().map(|&(_, d)| d as f64).sum();
            let mut sums = Matrix::zeros(k, d);
            let mut counts = vec![0usize; k];
            for (ci, chunk) in new.chunks(UPDATE_CHUNK).enumerate() {
                let mut partial = Matrix::zeros(k, d);
                for (off, &(c, _)) in chunk.iter().enumerate() {
                    counts[c] += 1;
                    for (sv, &v) in partial
                        .row_mut(c)
                        .iter_mut()
                        .zip(data.row(ci * UPDATE_CHUNK + off))
                    {
                        *sv += v;
                    }
                }
                sums.add_assign(&partial);
            }
            for c in 0..k {
                if counts[c] == 0 {
                    let idx = rng.random_range(0..n);
                    centroids.row_mut(c).copy_from_slice(data.row(idx));
                } else {
                    let inv = 1.0 / counts[c] as f32;
                    let s = sums.row(c).to_vec();
                    for (cv, sv) in centroids.row_mut(c).iter_mut().zip(s) {
                        *cv = sv * inv;
                    }
                }
            }
            let rel_change = (inertia - new_inertia).abs() / new_inertia.max(1e-12);
            inertia = new_inertia;
            if rel_change < config.tol {
                break;
            }
        }
        (centroids, inertia, iterations)
    }

    #[test]
    fn fit_matches_the_per_pair_loops_bit_for_bit() {
        let bits = |m: &Matrix| m.as_slice().iter().map(|v| v.to_bits()).collect::<Vec<_>>();
        let mut rng = lrng::seeded(13);
        // Rounded coordinates repeat, so distances tie and the first minimum must win.
        let tied = Matrix::from_vec(
            1500,
            8,
            (0..1500 * 8)
                .map(|_| (2.0 * lrng::standard_normal(&mut rng)).round())
                .collect(),
        );
        let wide = Matrix::from_vec(600, 64, lrng::normal_vector(&mut rng, 600 * 64));
        let cases = [
            (four_blobs(40, 2).0, 4, 50),
            (tied, 64, 10),
            (tied_rows_only(), 7, 5),
            (wide, 32, 15),
        ];
        for (data, k, max_iters) in &cases {
            let config = KMeansConfig {
                k: *k,
                max_iters: *max_iters,
                tol: 1e-4,
                seed: 5,
            };
            let (centroids, inertia, iterations) = fit_per_pair(data, &config);
            for threads in [1, 4] {
                let km = rayon::with_num_threads(threads, || KMeans::fit(data, &config));
                let shape = (data.rows(), data.cols(), *k, threads);
                assert_eq!(bits(&km.centroids), bits(&centroids), "{shape:?}");
                assert_eq!(km.inertia.to_bits(), inertia.to_bits(), "{shape:?}");
                assert_eq!(km.iterations, iterations, "{shape:?}");
                let scores = km.scores(data.row(0));
                let per_pair: Vec<f32> = (0..km.k())
                    .map(|c| -distance::squared_euclidean(data.row(0), centroids.row(c)))
                    .collect();
                assert_eq!(
                    scores.iter().map(|v| v.to_bits()).collect::<Vec<_>>(),
                    per_pair.iter().map(|v| v.to_bits()).collect::<Vec<_>>(),
                    "{shape:?}"
                );
            }
        }
    }

    #[test]
    #[should_panic(expected = "KMeans::fit: row 17 column 1 is NaN")]
    fn fit_refuses_a_nan_coordinate() {
        // A 20 × 10 grid with one NaN. Before the check, k-means++ drew every seed after
        // the first as a copy of the last row (the draw's total was NaN, so no target
        // was ever reached) and Lloyd ran all its iterations at inertia `+∞`.
        let mut grid = Matrix::from_rows(
            &(0..200)
                .map(|i| vec![(i / 10) as f32, (i % 10) as f32])
                .collect::<Vec<_>>(),
        );
        grid[(17, 1)] = f32::NAN;
        KMeans::fit(&grid, &KMeansConfig::new(8));
    }

    /// Twelve rows, two distinct: every distance has exact duplicates.
    fn tied_rows_only() -> Matrix {
        let rows = [
            vec![1.0f32, 2.0, 3.0],
            vec![-1.0, 0.0, 1.0],
            vec![1.0, 2.0, 3.0],
        ];
        Matrix::from_rows(&(0..12).map(|i| rows[i % 3].clone()).collect::<Vec<_>>())
    }

    #[test]
    #[should_panic(expected = "column kernel")]
    fn assign_panics_on_a_short_query() {
        // In a release build this used to score the query against a prefix of every
        // centroid and return an answer.
        let km = KMeans::fit(&four_blobs(10, 1).0, &KMeansConfig::new(4));
        km.assign(&[0.0]);
    }

    #[test]
    #[should_panic(expected = "column kernel")]
    fn scores_panics_on_a_long_query() {
        let km = KMeans::fit(&four_blobs(10, 1).0, &KMeansConfig::new(4));
        km.scores(&[0.0; 3]);
    }

    #[test]
    fn single_cluster_centroid_is_mean() {
        let data = Matrix::from_vec(4, 2, vec![0., 0., 2., 0., 0., 2., 2., 2.]);
        let km = KMeans::fit(&data, &KMeansConfig::new(1));
        assert_eq!(km.centroids.row(0), &[1.0, 1.0]);
    }
}
