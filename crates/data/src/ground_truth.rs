//! Exact nearest-neighbour ground truth and the k′-NN matrix.
//!
//! The paper's only preprocessing step (§4.2.1, Figure 2) is a k′-NN matrix: row `i` holds
//! the indices of the `k′` true nearest neighbours of point `p_i` in the dataset. The same
//! brute-force machinery computes the exact query ground truth used to measure k-NN
//! accuracy (Eq. 1). That machinery is the index's own streaming scan
//! ([`SegmentedScan`]: tiled, bound-rejected, on the host's SIMD backend) over the whole
//! dataset, so the preprocessing the paper calls cheap is measured at the speed of the
//! searches it is compared with, and truth and answers are ranked on identical bits.

use rayon::prelude::*;
use serde::{Deserialize, Serialize};
use usp_linalg::kernel::{QueryScorer, SegmentedScan};
use usp_linalg::{Distance, Matrix};

/// Exact k-nearest-neighbour indices of every query among the base points.
///
/// Brute force, parallelised over queries: `O(n_queries * n_base * d)`, each query one
/// pass of the index's own streaming scan ([`SegmentedScan`]) over the whole base.
pub fn exact_knn(base: &Matrix, queries: &Matrix, k: usize, distance: Distance) -> Vec<Vec<usize>> {
    assert_eq!(
        base.cols(),
        queries.cols(),
        "exact_knn: dimensionality mismatch"
    );
    (0..queries.rows())
        .into_par_iter()
        .map(|qi| {
            let mut scan = SegmentedScan::new(distance, queries.row(qi), base.cols(), k);
            scan.scan_segment(base.as_slice(), base.rows(), 0);
            winner_rows(scan).collect()
        })
        .collect()
}

/// The rows a scan selected, best first (segments are tagged with their first row).
fn winner_rows(scan: SegmentedScan<QueryScorer<'_>>) -> impl Iterator<Item = usize> {
    scan.into_winners()
        .into_iter()
        .map(|(first, offset, _)| first + offset)
}

/// The k′-NN matrix of a dataset: for every point, the indices of its k′ nearest
/// neighbours *excluding the point itself* (Figure 2 of the paper).
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct KnnMatrix {
    k: usize,
    n: usize,
    /// Flat `n * k` row-major buffer of neighbour indices.
    neighbors: Vec<u32>,
}

impl KnnMatrix {
    /// Builds the k′-NN matrix by brute force (parallel over points).
    ///
    /// This is the paper's "approximately 30 minutes on a million-sized dataset" step;
    /// on the streaming scan it is 0.20–0.25 s for 8 000 × 64-d on two threads
    /// (`servebench`'s fixture, `data.knn_s`).
    pub fn build(points: &Matrix, k: usize, distance: Distance) -> Self {
        let n = points.rows();
        assert!(n > 1, "KnnMatrix::build: need at least two points");
        let k = k.min(n - 1);
        let (rows, dim) = (points.as_slice(), points.cols());
        let neighbors: Vec<u32> = (0..n)
            .into_par_iter()
            .flat_map_iter(|i| {
                // Self is left out by position — the rows before `i`, then the rows
                // after it — not by distance: a duplicate of `p_i` is a neighbour, and
                // under inner product `p_i` need not be its own nearest row.
                let mut scan = SegmentedScan::new(distance, points.row(i), dim, k);
                scan.scan_segment(&rows[..i * dim], i, 0);
                scan.scan_segment(&rows[(i + 1) * dim..], n - i - 1, i + 1);
                winner_rows(scan).map(|j| j as u32)
            })
            .collect();
        assert_eq!(neighbors.len(), n * k);
        Self { k, n, neighbors }
    }

    /// Builds a k′-NN matrix from precomputed neighbour lists (used by tests and by
    /// approximate constructions).
    pub fn from_rows(rows: &[Vec<usize>]) -> Self {
        let n = rows.len();
        let k = rows.first().map(|r| r.len()).unwrap_or(0);
        let mut neighbors = Vec::with_capacity(n * k);
        for r in rows {
            assert_eq!(r.len(), k, "KnnMatrix::from_rows: ragged rows");
            neighbors.extend(r.iter().map(|&x| x as u32));
        }
        Self { k, n, neighbors }
    }

    /// Number of neighbours stored per point (k′).
    pub fn k(&self) -> usize {
        self.k
    }

    /// Number of points.
    pub fn len(&self) -> usize {
        self.n
    }

    /// True when the matrix holds no points.
    pub fn is_empty(&self) -> bool {
        self.n == 0
    }

    /// The neighbour indices of point `i`.
    pub fn neighbors_of(&self, i: usize) -> &[u32] {
        &self.neighbors[i * self.k..(i + 1) * self.k]
    }

    /// Iterator over `(point, neighbours)` pairs.
    pub fn iter(&self) -> impl Iterator<Item = (usize, &[u32])> {
        (0..self.n).map(move |i| (i, self.neighbors_of(i)))
    }

    /// The underlying flat buffer (row-major, `n * k`).
    pub fn as_slice(&self) -> &[u32] {
        &self.neighbors
    }
}

/// Computes the k-NN accuracy (recall) of an answer set against the ground truth (Eq. 1):
/// `|answers ∩ truth| / k`.
pub fn knn_accuracy(answers: &[usize], truth: &[usize]) -> f64 {
    if truth.is_empty() {
        return 0.0;
    }
    let truth_set: std::collections::HashSet<usize> = truth.iter().copied().collect();
    let hit = answers.iter().filter(|a| truth_set.contains(a)).count();
    hit as f64 / truth.len() as f64
}

#[cfg(test)]
mod tests {
    use super::*;
    use usp_linalg::topk;

    fn line_points(n: usize) -> Matrix {
        // Points at x = 0, 1, 2, ... on a line: neighbours are the adjacent indices.
        Matrix::from_vec(n, 1, (0..n).map(|i| i as f32).collect())
    }

    #[test]
    fn exact_knn_on_a_line() {
        let base = line_points(10);
        let queries = Matrix::from_vec(2, 1, vec![0.1, 8.9]);
        let knn = exact_knn(&base, &queries, 3, Distance::SquaredEuclidean);
        assert_eq!(knn[0], vec![0, 1, 2]);
        assert_eq!(knn[1], vec![9, 8, 7]);
    }

    #[test]
    fn knn_matrix_excludes_self() {
        let points = line_points(6);
        let m = KnnMatrix::build(&points, 2, Distance::SquaredEuclidean);
        assert_eq!(m.k(), 2);
        assert_eq!(m.len(), 6);
        for (i, nbrs) in m.iter() {
            assert!(!nbrs.contains(&(i as u32)), "point {i} lists itself");
            assert_eq!(nbrs.len(), 2);
        }
        // Point 0's nearest neighbours on the line are 1 and 2.
        assert_eq!(m.neighbors_of(0), &[1, 2]);
        // Point 3's are 2 and 4.
        let n3: Vec<u32> = m.neighbors_of(3).to_vec();
        assert!(n3.contains(&2) && n3.contains(&4));
    }

    #[test]
    fn knn_matrix_excludes_self_by_position_not_by_distance() {
        // Under inner product a row's nearest row is the longest vector (row 2), not
        // itself, so dropping "the nearest" or "distance 0" would drop a neighbour;
        // rows 0 and 1 are duplicates and must still list each other.
        let points = Matrix::from_vec(4, 2, vec![1.0, 0.0, 1.0, 0.0, 3.0, 0.0, 2.0, 0.0]);
        let m = KnnMatrix::build(&points, 3, Distance::InnerProduct);
        assert_eq!(m.neighbors_of(0), &[2, 3, 1]);
        assert_eq!(m.neighbors_of(1), &[2, 3, 0]);
        assert_eq!(m.neighbors_of(2), &[3, 0, 1]);
        assert_eq!(m.neighbors_of(3), &[2, 0, 1]);
    }

    #[test]
    fn knn_matrix_k_clamped() {
        let points = line_points(3);
        let m = KnnMatrix::build(&points, 10, Distance::SquaredEuclidean);
        assert_eq!(m.k(), 2);
    }

    #[test]
    fn from_rows_roundtrip() {
        let m = KnnMatrix::from_rows(&[vec![1, 2], vec![0, 2], vec![0, 1]]);
        assert_eq!(m.neighbors_of(1), &[0, 2]);
        assert_eq!(m.as_slice().len(), 6);
    }

    #[test]
    fn exact_knn_with_nan_rows_ranks_them_strictly_last() {
        // A corrupt base row (all-NaN) must not panic the ground truth and must lose
        // every comparison: the nan-class order puts NaN distances after all finite
        // ones, ties broken by index.
        let base = Matrix::from_vec(4, 2, vec![0.0, 0.0, f32::NAN, f32::NAN, 1.0, 1.0, 5.0, 5.0]);
        let q = Matrix::from_vec(1, 2, vec![0.1, 0.1]);
        let got = exact_knn(&base, &q, 4, Distance::SquaredEuclidean);
        assert_eq!(got[0], vec![0, 2, 3, 1], "NaN row must rank last");
        // And the naive nan-class oracle (the proptest comparator) agrees.
        let mut dists: Vec<(usize, f32)> = (0..4)
            .map(|i| (i, Distance::SquaredEuclidean.eval(q.row(0), base.row(i))))
            .collect();
        dists.sort_by(|a, b| topk::nan_class_cmp(a.1, b.1).then(a.0.cmp(&b.0)));
        let naive: Vec<usize> = dists.into_iter().map(|(i, _)| i).collect();
        assert_eq!(got[0], naive);
    }

    #[test]
    fn knn_accuracy_counts_overlap() {
        assert_eq!(knn_accuracy(&[1, 2, 3], &[1, 2, 3]), 1.0);
        assert_eq!(knn_accuracy(&[1, 9, 8], &[1, 2, 3]), 1.0 / 3.0);
        assert_eq!(knn_accuracy(&[], &[1, 2]), 0.0);
        assert_eq!(knn_accuracy(&[1], &[]), 0.0);
    }
}

#[cfg(test)]
mod proptests {
    use super::*;
    use proptest::prelude::*;
    use usp_linalg::{kernel, topk};

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(16))]
        #[test]
        fn exact_knn_matches_naive(
            dim in 1usize..=40,
            values in prop::collection::vec(-100f32..100.0, 40..1200),
            query in prop::collection::vec(-100f32..100.0, 40..41),
            k in 1usize..5,
            metric in 0usize..4,
        ) {
            // Every tail-lane length of the 8-wide kernels under every metric; the
            // oracle scores pair by pair through the same kernel and sorts everything.
            let distance = [
                Distance::SquaredEuclidean,
                Distance::Euclidean,
                Distance::InnerProduct,
                Distance::Cosine,
            ][metric];
            let n = values.len() / dim;
            let base = Matrix::from_vec(n, dim, values[..n * dim].to_vec());
            let q = Matrix::from_vec(1, dim, query[..dim].to_vec());
            let fast = exact_knn(&base, &q, k, distance);
            let mut dists: Vec<(usize, f32)> = (0..n)
                .map(|i| (i, kernel::eval(distance, q.row(0), base.row(i))))
                .collect();
            // Nan-class comparator, not `partial_cmp().unwrap()`: the oracle must not
            // be the one thing in the pipeline that panics on a NaN distance.
            dists.sort_by(|a, b| topk::nan_class_cmp(a.1, b.1).then(a.0.cmp(&b.0)));
            let naive: Vec<usize> = dists.into_iter().take(k).map(|(i, _)| i).collect();
            prop_assert_eq!(&fast[0], &naive);
        }

        #[test]
        fn knn_matrix_never_contains_self(n in 3usize..30, k in 1usize..6) {
            let points = Matrix::from_vec(n, 1, (0..n).map(|i| (i * i) as f32 * 0.1).collect());
            let m = KnnMatrix::build(&points, k, Distance::SquaredEuclidean);
            for (i, nbrs) in m.iter() {
                prop_assert!(!nbrs.contains(&(i as u32)));
                prop_assert!(nbrs.iter().all(|&j| (j as usize) < n));
            }
        }
    }
}
