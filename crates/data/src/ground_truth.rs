//! Exact nearest-neighbour ground truth and the k′-NN matrix.
//!
//! The paper's only preprocessing step (§4.2.1, Figure 2) is a k′-NN matrix: row `i` holds
//! the indices of the `k′` true nearest neighbours of point `p_i` in the dataset. The same
//! brute-force machinery computes the exact query ground truth used to measure k-NN
//! accuracy (Eq. 1). That machinery is the kernel's tile walker
//! ([`kernel::nearest_rows`], [`kernel::nearest_other_rows`]: cache-sized blocks of rows,
//! scored by the index's own tile kernel on the host's SIMD backend), so the
//! preprocessing the paper calls cheap is measured at the speed of the searches it is
//! compared with, and truth and answers are ranked on identical bits.

use std::collections::HashSet;

use usp_linalg::kernel;
use usp_linalg::topk::TopK;
use usp_linalg::{Distance, Matrix};

/// Exact k-nearest-neighbour indices of every query among the base points, best first.
///
/// Brute force, `O(n_queries * n_base * d)`: groups of queries walk the base a cache-sized
/// block at a time, in parallel over the groups ([`kernel::nearest_rows`]).
///
/// # Panics
/// If the queries' dimensionality is not the base's.
pub fn exact_knn(base: &Matrix, queries: &Matrix, k: usize, distance: Distance) -> Vec<Vec<usize>> {
    kernel::nearest_rows(distance, base, queries, k)
        .into_iter()
        .map(TopK::into_sorted_indices)
        .collect()
}

/// The k′-NN matrix of a dataset: for every point, the indices of its k′ nearest
/// neighbours *excluding the point itself* (Figure 2 of the paper).
#[derive(Debug, Clone)]
pub struct KnnMatrix {
    k: usize,
    n: usize,
    /// Flat `n * k` row-major buffer of neighbour indices.
    neighbors: Vec<u32>,
}

impl KnnMatrix {
    /// Builds the k′-NN matrix by brute force: every unordered pair of points scored
    /// once where the metric is bitwise symmetric ([`kernel::nearest_other_rows`]).
    ///
    /// This is the paper's "approximately 30 minutes on a million-sized dataset" step;
    /// on the tile walker it is about 0.1 s for 8 000 × 64-d on two threads
    /// (`servebench`'s fixture, `data.knn_s`).
    ///
    /// # Panics
    /// If there are fewer than two points or `k` is 0: a k′ = 0 matrix gives every
    /// training target row 0/0, and the router trained on it is uniform.
    pub fn build(points: &Matrix, k: usize, distance: Distance) -> Self {
        let n = points.rows();
        assert!(n > 1, "KnnMatrix::build: need at least two points");
        assert!(k >= 1, "KnnMatrix::build: k' must be at least 1");
        let k = k.min(n - 1);
        let neighbors: Vec<u32> = kernel::nearest_other_rows(distance, points, k)
            .into_iter()
            .flat_map(TopK::into_sorted)
            .map(|(j, _)| j)
            .collect();
        assert_eq!(neighbors.len(), n * k);
        Self { k, n, neighbors }
    }

    /// Builds a k′-NN matrix from precomputed neighbour lists (used by tests and by
    /// approximate constructions).
    ///
    /// # Panics
    /// If the rows are ragged or a row names a neighbour that is not one of the `n` points.
    pub fn from_rows(rows: &[Vec<usize>]) -> Self {
        let n = rows.len();
        let k = rows.first().map(|r| r.len()).unwrap_or(0);
        let mut neighbors = Vec::with_capacity(n * k);
        for (i, r) in rows.iter().enumerate() {
            assert_eq!(r.len(), k, "KnnMatrix::from_rows: ragged rows");
            if let Some(&j) = r.iter().find(|&&j| j >= n) {
                panic!(
                    "KnnMatrix::from_rows: point {i} lists neighbour {j}, but there are {n} points"
                );
            }
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
/// `|answers ∩ truth| / k`. The intersection is of sets: an answer repeated in `answers`
/// is found once.
pub fn knn_accuracy(answers: &[usize], truth: &[usize]) -> f64 {
    if truth.is_empty() {
        return 0.0;
    }
    let truth_set: HashSet<usize> = truth.iter().copied().collect();
    let found: HashSet<usize> = answers
        .iter()
        .copied()
        .filter(|a| truth_set.contains(a))
        .collect();
    found.len() as f64 / truth.len() as f64
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

    /// An id past the last point is refused here, naming it, instead of panicking in
    /// the trainer's row gather far from the input that caused it.
    #[test]
    #[should_panic(
        expected = "KnnMatrix::from_rows: point 2 lists neighbour 3, but there are 3 points"
    )]
    fn from_rows_refuses_a_neighbour_past_the_last_point() {
        KnnMatrix::from_rows(&[vec![1, 2], vec![0, 2], vec![0, 3]]);
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

    #[test]
    fn knn_accuracy_finds_a_repeated_answer_once() {
        // Eq. 1 intersects sets: three copies of one true neighbour are one of three.
        assert_eq!(knn_accuracy(&[1, 1, 1], &[1, 2, 3]), 1.0 / 3.0);
        assert_eq!(knn_accuracy(&[2, 9, 2, 3], &[1, 2, 3]), 2.0 / 3.0);
    }

    #[test]
    #[should_panic(expected = "k' must be at least 1")]
    fn knn_matrix_refuses_k_zero() {
        KnnMatrix::build(&line_points(5), 0, Distance::SquaredEuclidean);
    }
}

/// The per-row scans the tile walker replaced, kept as its oracle: one [`SegmentedScan`]
/// per point over the rows either side of it (self left out by position), and one per
/// query over the whole base. Segments are tagged with their first row, so a winner's
/// row is `base + offset`.
#[cfg(test)]
pub(crate) mod reference {
    use usp_linalg::kernel::{QueryScorer, SegmentedScan};
    use usp_linalg::{Distance, Matrix};

    fn winner_rows(scan: SegmentedScan<QueryScorer<'_>>) -> impl Iterator<Item = usize> {
        scan.into_winners()
            .into_iter()
            .map(|(first, offset, _)| first + offset)
    }

    /// The flat `n × min(k, n − 1)` neighbour buffer of [`super::KnnMatrix::build`].
    pub(crate) fn knn_matrix(points: &Matrix, k: usize, distance: Distance) -> Vec<u32> {
        let (n, dim) = points.shape();
        let k = k.min(n - 1);
        let rows = points.as_slice();
        (0..n)
            .flat_map(|i| {
                let mut scan = SegmentedScan::new(distance, points.row(i), dim, k);
                scan.scan_segment(&rows[..i * dim], i, 0);
                scan.scan_segment(&rows[(i + 1) * dim..], n - i - 1, i + 1);
                winner_rows(scan).map(|j| j as u32).collect::<Vec<_>>()
            })
            .collect()
    }

    /// [`super::exact_knn`].
    pub(crate) fn exact_knn(
        base: &Matrix,
        queries: &Matrix,
        k: usize,
        distance: Distance,
    ) -> Vec<Vec<usize>> {
        (0..queries.rows())
            .map(|qi| {
                let mut scan = SegmentedScan::new(distance, queries.row(qi), base.cols(), k);
                scan.scan_segment(base.as_slice(), base.rows(), 0);
                winner_rows(scan).collect()
            })
            .collect()
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

        /// The walker against the per-row scans it replaced, for all four metrics, on one
        /// and four threads: the k′-NN matrix and the ground truth are equal. `n` lies
        /// below, at and across a block boundary, and across three blocks (an odd count,
        /// so one block sits out each round-robin round); the dimension covers 0, the
        /// 8-lane tail either side of a chunk, and 64; coordinates are seeded with NaN,
        /// ±∞ and ±0.0 and rows duplicated (exact ties, broken by position); `k` runs up
        /// to past `n − 1`; the query count crosses the walker's query groups.
        #[test]
        fn walker_matches_the_per_row_scans(
            shape in 0usize..15,
            dim_class in 0usize..6,
            seed in 0u64..1 << 40,
            specials in prop::collection::vec((0usize..1 << 20, 0u8..6), 0..10),
            draw in 0usize..160,
        ) {
            const B: usize = kernel::WALK_BLOCK;
            let (size, offset) = (shape / 5, shape % 5);
            let (k_class, n_queries) = (draw % 4, draw / 4);
            let n = [2 + offset, B - 2 + offset, 3 * B - 2 + offset][size];
            // Three blocks of 64-d rows are slow in a debug build; the tails are the point.
            let dim = [0, 1, 7, 8, 9, 64][if size == 2 { dim_class % 5 } else { dim_class }];
            let k = [1, 1 + offset, n - 1, n + 3][k_class];
            let mut rng = usp_linalg::rng::seeded(seed);
            let mut values = usp_linalg::rng::normal_vector(&mut rng, (n + n_queries) * dim);
            for &(at, class) in &specials {
                if class == 5 {
                    // Row `at % n` becomes a copy of its neighbour.
                    let (to, from) = (at % n, (at + 1) % n);
                    values.copy_within(from * dim..(from + 1) * dim, to * dim);
                } else if !values.is_empty() {
                    let special = [f32::NAN, f32::INFINITY, f32::NEG_INFINITY, 0.0, -0.0];
                    let at = at % values.len();
                    values[at] = special[class as usize];
                }
            }
            let points = Matrix::from_vec(n, dim, values[..n * dim].to_vec());
            // A few queries are copies of points: ties at distance zero.
            let mut queries = Matrix::from_vec(n_queries, dim, values[n * dim..].to_vec());
            for q in (0..n_queries).step_by(3) {
                queries.row_mut(q).copy_from_slice(points.row(q % n));
            }
            for distance in [
                Distance::SquaredEuclidean,
                Distance::Euclidean,
                Distance::InnerProduct,
                Distance::Cosine,
            ] {
                let matrix = super::reference::knn_matrix(&points, k, distance);
                let truth = super::reference::exact_knn(&points, &queries, k, distance);
                for threads in [1, 4] {
                    let (walked, exact) = rayon::with_num_threads(threads, || {
                        (
                            KnnMatrix::build(&points, k, distance),
                            exact_knn(&points, &queries, k, distance),
                        )
                    });
                    prop_assert_eq!(walked.k(), k.min(n - 1));
                    prop_assert!(
                        walked.as_slice() == matrix.as_slice(),
                        "{} k'-NN matrix, n={n} dim={dim} k={k}, {threads} threads", distance.name()
                    );
                    prop_assert!(
                        exact == truth,
                        "{} ground truth, n={n} dim={dim} k={k}, {threads} threads", distance.name()
                    );
                }
            }
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
