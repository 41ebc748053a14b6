//! Distance and similarity kernels.
//!
//! The paper defines ANNS under an arbitrary distance function `D` (Euclidean in all its
//! experiments). The [`Distance`] enum lets every index in the workspace be generic over
//! the metric without trait objects on the hot path.

use crate::matrix::dot;

/// Squared Euclidean distance between two equal-length vectors: `(a[t] − b[t])²` added
/// to `0.0` for `t` ascending, one `sub`, one `mul` and one `add` per coordinate.
/// [`crate::kernel_columns`] runs this chain from one vector to many points at once.
///
/// # Panics
/// If the lengths differ.
#[inline]
pub fn squared_euclidean(a: &[f32], b: &[f32]) -> f32 {
    assert_eq!(a.len(), b.len(), "squared_euclidean: lengths differ");
    let mut acc = 0.0f32;
    for (x, y) in a.iter().zip(b.iter()) {
        let d = x - y;
        acc += d * d;
    }
    acc
}

/// Euclidean (L2) distance.
#[inline]
pub fn euclidean(a: &[f32], b: &[f32]) -> f32 {
    squared_euclidean(a, b).sqrt()
}

/// Negative inner product, so that *smaller is more similar* like every other metric here.
#[inline]
pub fn negative_dot(a: &[f32], b: &[f32]) -> f32 {
    -dot(a, b)
}

/// L2 norm of a vector.
#[inline]
pub fn norm(a: &[f32]) -> f32 {
    dot(a, a).sqrt()
}

/// Cosine distance `1 - cos(a, b)`; zero vectors are treated as maximally distant.
#[inline]
pub fn cosine(a: &[f32], b: &[f32]) -> f32 {
    let na = norm(a);
    let nb = norm(b);
    if na == 0.0 || nb == 0.0 {
        return 1.0;
    }
    1.0 - dot(a, b) / (na * nb)
}

/// Distance function used by an index.
///
/// All variants return values where **smaller means closer**, so candidate re-ranking code
/// can be metric-agnostic.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum Distance {
    /// Squared Euclidean distance (monotone in Euclidean distance; avoids the sqrt).
    #[default]
    SquaredEuclidean,
    /// Euclidean (L2) distance.
    Euclidean,
    /// Negative inner product (maximum inner-product search).
    InnerProduct,
    /// Cosine distance.
    Cosine,
}

impl Distance {
    /// Evaluates the distance between two vectors.
    #[inline]
    pub fn eval(&self, a: &[f32], b: &[f32]) -> f32 {
        match self {
            Distance::SquaredEuclidean => squared_euclidean(a, b),
            Distance::Euclidean => euclidean(a, b),
            Distance::InnerProduct => negative_dot(a, b),
            Distance::Cosine => cosine(a, b),
        }
    }

    /// Human-readable name used in reports.
    pub fn name(&self) -> &'static str {
        match self {
            Distance::SquaredEuclidean => "squared_euclidean",
            Distance::Euclidean => "euclidean",
            Distance::InnerProduct => "inner_product",
            Distance::Cosine => "cosine",
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::kernel_columns::{nearest_column, squared_euclidean_to_columns};
    use crate::kernel_gemm::tests::{same, special};
    use proptest::prelude::*;

    // `assert!`, not `debug_assert!`: under `cargo test --release` a short `b` must not be
    // scored as a prefix (`zip` stops at the shorter slice).
    #[test]
    #[should_panic(expected = "lengths differ")]
    fn squared_euclidean_panics_on_a_short_b() {
        squared_euclidean(&[1.0; 8], &[1.0; 7]);
    }

    #[test]
    #[should_panic(expected = "lengths differ")]
    fn squared_euclidean_panics_on_a_long_b() {
        squared_euclidean(&[1.0; 8], &[1.0; 9]);
    }

    #[test]
    fn column_kernels_panic_on_a_wrong_shape() {
        for len in [11, 13] {
            let columns = vec![0.0f32; len];
            let to_columns = std::panic::catch_unwind(|| {
                squared_euclidean_to_columns(&[0.0; 3], &columns, &mut [0.0; 4])
            });
            assert!(to_columns.is_err(), "accepted {len} floats for 3 x 4");
            let nearest = std::panic::catch_unwind(|| nearest_column(&[0.0; 3], &columns, 4));
            assert!(nearest.is_err(), "nearest accepted {len} floats for 3 x 4");
        }
    }

    /// Point `j` of a column-major block, gathered back into a row.
    fn column(columns: &[f32], d: usize, m: usize, j: usize) -> Vec<f32> {
        (0..d).map(|t| columns[t * m + j]).collect()
    }

    /// The per-pair loop the column kernels replace.
    fn nearest_by_pairs(q: &[f32], columns: &[f32], m: usize) -> (usize, f32) {
        let mut best = (0usize, f32::INFINITY);
        for j in 0..m {
            let d = squared_euclidean(q, &column(columns, q.len(), m, j));
            if d < best.1 {
                best = (j, d);
            }
        }
        best
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(512))]

        /// Both column kernels against one `squared_euclidean` per point: the same bits
        /// (up to which NaN, as for the scan kernels), and the scalar loop's winner.
        /// `m` covers two whole blocks of either form (16 and 32 points) and every
        /// remainder past them, and the served codebook's 256 (drawn as 96); `d` covers
        /// the 0-dim case; `q` starts one float into its allocation and the columns
        /// three past it, and entries are seeded with NaN, ±∞ and ±0.0.
        #[test]
        fn column_kernels_match_squared_euclidean_bit_for_bit(
            d in 0usize..=40,
            m in 0usize..=96,
            seed in 0u64..1 << 40,
            specials in prop::collection::vec((0usize..1 << 20, 0u8..5), 0..6),
        ) {
            let m = if m == 96 { 256 } else { m };
            let mut values = crate::rng::normal_vector(&mut crate::rng::seeded(seed), 4 + d + d * m);
            for &(at, class) in &specials {
                let at = at % values.len();
                values[at] = special(class);
            }
            let (q, columns) = (&values[1..1 + d], &values[4 + d..]);
            let mut got = vec![f32::NAN; m];
            squared_euclidean_to_columns(q, columns, &mut got);
            for (j, &g) in got.iter().enumerate() {
                let want = squared_euclidean(q, &column(columns, d, m, j));
                prop_assert!(
                    same(want, g),
                    "d={d} m={m} point {j}: per pair {want:?} ({:#x}) vs columns {g:?} ({:#x})",
                    want.to_bits(), g.to_bits()
                );
            }
            let (want, got) = (nearest_by_pairs(q, columns, m), nearest_column(q, columns, m));
            prop_assert!(want.0 == got.0 && same(want.1, got.1), "d={d} m={m}: {want:?} vs {got:?}");
        }
    }

    #[test]
    fn nearest_column_keeps_the_scalar_loops_ties_nans_and_infinities() {
        // Lay out `points` (each `d` long) column-major.
        let columns_of = |points: &[Vec<f32>]| -> Vec<f32> {
            let d = points.first().map_or(0, Vec::len);
            (0..d)
                .flat_map(|t| points.iter().map(move |p| p[t]))
                .collect()
        };
        let q = [1.0f32, -2.0];
        // Copies of the nearest point in three lanes of two blocks and in the tail past
        // the last whole block: the lowest index wins.
        let mut points = vec![vec![9.0f32, 9.0]; 40];
        for j in [36, 21, 18, 7] {
            points[j] = vec![1.5, -2.0];
        }
        assert_eq!(nearest_column(&q, &columns_of(&points), 40), (7, 0.25));
        // A NaN row never wins; when every row is NaN the answer is (0, +∞).
        points[7] = vec![f32::NAN, 0.0];
        assert_eq!(nearest_column(&q, &columns_of(&points), 40), (18, 0.25));
        let nans = vec![vec![f32::NAN, 1.0]; 35];
        assert_eq!(
            nearest_column(&q, &columns_of(&nans), 35),
            (0, f32::INFINITY)
        );
        // +∞ distances never win either, and a finite one after them does.
        let mut far = vec![vec![f32::INFINITY, 0.0]; 35];
        assert_eq!(
            nearest_column(&q, &columns_of(&far), 35),
            (0, f32::INFINITY)
        );
        far[34] = vec![1.0, 0.0];
        assert_eq!(nearest_column(&q, &columns_of(&far), 35), (34, 4.0));
        // No points, or no dimensions (every distance 0.0: the first point).
        assert_eq!(nearest_column(&q, &[], 0), (0, f32::INFINITY));
        assert_eq!(nearest_column(&[], &[], 7), (0, 0.0));
    }

    #[test]
    fn squared_euclidean_known_value() {
        assert_eq!(squared_euclidean(&[0., 0.], &[3., 4.]), 25.0);
        assert_eq!(euclidean(&[0., 0.], &[3., 4.]), 5.0);
    }

    #[test]
    fn distance_to_self_is_zero() {
        let v = [1.0, -2.0, 3.5];
        assert_eq!(squared_euclidean(&v, &v), 0.0);
        assert!(cosine(&v, &v).abs() < 1e-6);
    }

    #[test]
    fn cosine_orthogonal_is_one() {
        assert!((cosine(&[1., 0.], &[0., 1.]) - 1.0).abs() < 1e-6);
    }

    #[test]
    fn cosine_zero_vector_is_max() {
        assert_eq!(cosine(&[0., 0.], &[1., 1.]), 1.0);
    }

    #[test]
    fn inner_product_smaller_is_closer() {
        // A more aligned vector must give a *smaller* value.
        let q = [1.0, 1.0];
        assert!(negative_dot(&q, &[2.0, 2.0]) < negative_dot(&q, &[0.1, 0.1]));
    }

    #[test]
    fn enum_dispatch_matches_free_functions() {
        let a = [1., 2., 3.];
        let b = [4., 5., 6.];
        assert_eq!(
            Distance::SquaredEuclidean.eval(&a, &b),
            squared_euclidean(&a, &b)
        );
        assert_eq!(Distance::Euclidean.eval(&a, &b), euclidean(&a, &b));
        assert_eq!(Distance::InnerProduct.eval(&a, &b), negative_dot(&a, &b));
        assert_eq!(Distance::Cosine.eval(&a, &b), cosine(&a, &b));
    }

    #[test]
    fn names_are_stable() {
        assert_eq!(Distance::default().name(), "squared_euclidean");
        assert_eq!(Distance::Cosine.name(), "cosine");
    }
}
