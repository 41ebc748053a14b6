//! Locality-sensitive hashing partitioners.
//!
//! Two data-oblivious baselines from the paper's evaluation:
//!
//! * **Hyperplane LSH** — `b` random hyperplanes through the data mean produce `2^b` bins;
//!   multi-probe ranking flips the lowest-margin bits first (Lv et al., multi-probe LSH).
//! * **Cross-polytope LSH** (Andoni et al. 2015) — the query is pseudo-randomly rotated and
//!   hashed to the closest signed axis; with a projection to `m/2` dimensions this yields
//!   `m` bins whose scores are the signed projections themselves.
//!
//! Both are deliberately independent of the data distribution (only the mean/scale are
//! used), which is exactly why the paper shows them trailing learned partitions.

use usp_index::Partitioner;
use usp_linalg::{matrix::dot, rng as lrng, Matrix};

/// Hyperplane (sign-of-projection) LSH with `bits` hyperplanes and `2^bits` bins.
#[derive(Debug, Clone)]
pub struct HyperplaneLsh {
    /// One random unit normal per row.
    normals: Matrix,
    /// Offsets so hyperplanes pass through the data mean.
    offsets: Vec<f32>,
    bits: usize,
}

impl HyperplaneLsh {
    /// Draws `bits` random hyperplanes through the mean of `data`.
    pub fn fit(data: &Matrix, bits: usize, seed: u64) -> Self {
        assert!(bits > 0 && bits <= 20, "bits must be in 1..=20");
        let d = data.cols();
        let mut rng = lrng::seeded(seed);
        let mean = data.col_means();
        let mut normals = Matrix::zeros(bits, d);
        let mut offsets = vec![0.0f32; bits];
        for b in 0..bits {
            let u = lrng::random_unit_vector(&mut rng, d);
            normals.row_mut(b).copy_from_slice(&u);
            offsets[b] = dot(&u, &mean);
        }
        Self {
            normals,
            offsets,
            bits,
        }
    }

    /// Signed margins of a query against every hyperplane.
    fn margins(&self, query: &[f32]) -> Vec<f32> {
        (0..self.bits)
            .map(|b| dot(self.normals.row(b), query) - self.offsets[b])
            .collect()
    }

    /// The hash code (bin) of a query.
    pub fn hash(&self, query: &[f32]) -> usize {
        self.margins(query)
            .iter()
            .enumerate()
            .fold(0usize, |acc, (b, &m)| acc | (usize::from(m >= 0.0) << b))
    }
}

impl Partitioner for HyperplaneLsh {
    fn num_bins(&self) -> usize {
        1usize << self.bits
    }

    fn bin_scores(&self, query: &[f32]) -> Vec<f32> {
        // Multi-probe ranking: the score of a bin is the negative total margin that would
        // have to be "flipped" to reach it from the query's own bin.
        let margins = self.margins(query);
        let own = self.hash(query);
        (0..self.num_bins())
            .map(|bin| {
                let mut cost = 0.0f32;
                for (b, &m) in margins.iter().enumerate() {
                    let differs = ((bin >> b) & 1) != ((own >> b) & 1);
                    if differs {
                        cost += m.abs();
                    }
                }
                -cost
            })
            .collect()
    }

    fn assign(&self, query: &[f32]) -> usize {
        self.hash(query)
    }

    fn name(&self) -> String {
        format!("hyperplane-lsh({} bits)", self.bits)
    }
}

/// Cross-polytope LSH over a pseudo-random rotation to `m/2` dimensions.
#[derive(Debug, Clone)]
pub struct CrossPolytopeLsh {
    /// Random Gaussian projection, shape `(m/2, d)`.
    projection: Matrix,
    /// Data mean subtracted before projection (centering improves bucket balance).
    mean: Vec<f32>,
    bins: usize,
}

impl CrossPolytopeLsh {
    /// Creates a cross-polytope hash with `bins` bins (`bins` must be even and ≥ 2).
    pub fn fit(data: &Matrix, bins: usize, seed: u64) -> Self {
        assert!(
            bins >= 2 && bins.is_multiple_of(2),
            "cross-polytope LSH needs an even number of bins"
        );
        let d = data.cols();
        let mut rng = lrng::seeded(seed);
        let projection = lrng::normal_matrix(&mut rng, bins / 2, d, 1.0 / (d as f32).sqrt());
        let mean = data.col_means();
        Self {
            projection,
            mean,
            bins,
        }
    }

    fn project(&self, query: &[f32]) -> Vec<f32> {
        let centered: Vec<f32> = query.iter().zip(&self.mean).map(|(q, m)| q - m).collect();
        (0..self.projection.rows())
            .map(|r| dot(self.projection.row(r), &centered))
            .collect()
    }
}

impl Partitioner for CrossPolytopeLsh {
    fn num_bins(&self) -> usize {
        self.bins
    }

    fn bin_scores(&self, query: &[f32]) -> Vec<f32> {
        // Bin 2j   <-> axis +e_j, score  proj_j
        // Bin 2j+1 <-> axis -e_j, score -proj_j
        let proj = self.project(query);
        let mut scores = Vec::with_capacity(self.bins);
        for p in proj {
            scores.push(p);
            scores.push(-p);
        }
        scores
    }

    fn name(&self) -> String {
        format!("cross-polytope-lsh({})", self.bins)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use usp_index::{PartitionIndex, Partitioner};
    use usp_linalg::{topk, Distance};

    fn gaussian(n: usize, d: usize, seed: u64) -> Matrix {
        lrng::normal_matrix(&mut lrng::seeded(seed), n, d, 1.0)
    }

    #[test]
    fn hyperplane_hash_matches_assign_and_is_in_range() {
        let data = gaussian(200, 8, 1);
        let lsh = HyperplaneLsh::fit(&data, 4, 2);
        assert_eq!(lsh.num_bins(), 16);
        for i in (0..200).step_by(19) {
            let q = data.row(i);
            let h = lsh.hash(q);
            assert!(h < 16);
            assert_eq!(h, lsh.assign(q));
        }
    }

    #[test]
    fn hyperplane_own_bin_scores_highest() {
        let data = gaussian(100, 6, 3);
        let lsh = HyperplaneLsh::fit(&data, 3, 4);
        let q = data.row(5);
        let ranked = lsh.rank_bins(q, 8);
        assert_eq!(ranked[0], lsh.hash(q));
        // Scores are non-positive with exactly the own bin at zero.
        let scores = lsh.bin_scores(q);
        assert!(scores.iter().all(|&s| s <= 1e-6));
        assert!(scores[lsh.hash(q)].abs() < 1e-6);
    }

    #[test]
    fn hyperplane_multiprobe_flips_cheapest_bit_first() {
        let data = gaussian(100, 4, 5);
        let lsh = HyperplaneLsh::fit(&data, 3, 6);
        let q = data.row(0);
        let margins = lsh.margins(q);
        let own = lsh.hash(q);
        let ranked = lsh.rank_bins(q, 2);
        // The second-ranked bin differs from the own bin by exactly the lowest-|margin| bit.
        // Nan-class comparator, not `partial_cmp().unwrap()`: a degenerate query (see the
        // NaN regression below) must break the assertion, not the comparator.
        let cheapest_bit = margins
            .iter()
            .enumerate()
            .min_by(|a, b| topk::nan_class_cmp(a.1.abs(), b.1.abs()))
            .unwrap()
            .0;
        assert_eq!(ranked[1], own ^ (1 << cheapest_bit));
    }

    #[test]
    fn hyperplane_nan_queries_rank_without_panicking() {
        // One NaN coordinate poisons every margin. Pre-fix, the cheapest-bit selection
        // above used `partial_cmp().unwrap()` and died on exactly this input; the
        // nan-class comparator classes all-NaN margins as equal and picks the first
        // bit, and bin ranking itself stays deterministic.
        let data = gaussian(100, 4, 5);
        let lsh = HyperplaneLsh::fit(&data, 3, 6);
        let q = [f32::NAN, 0.5, -0.5, 1.0];
        let margins = lsh.margins(&q);
        assert!(margins.iter().all(|m| m.is_nan()));
        let cheapest_bit = margins
            .iter()
            .enumerate()
            .min_by(|a, b| topk::nan_class_cmp(a.1.abs(), b.1.abs()))
            .unwrap()
            .0;
        assert_eq!(cheapest_bit, 0, "all-equal NaN class picks the first bit");
        let ranked = lsh.rank_bins(&q, 8);
        assert_eq!(ranked, lsh.rank_bins(&q, 8), "NaN ranking must be stable");
        assert_eq!(ranked.len(), 8);
    }

    #[test]
    fn cross_polytope_covers_bins_and_balances_roughly() {
        let data = gaussian(2000, 16, 7);
        let lsh = CrossPolytopeLsh::fit(&data, 16, 8);
        let idx = PartitionIndex::build(lsh, &data, Distance::SquaredEuclidean);
        let stats = idx.balance();
        assert_eq!(stats.bins, 16);
        assert_eq!(stats.total, 2000);
        // Gaussian data through a random rotation should not leave bins empty.
        assert_eq!(stats.empty_bins, 0);
        assert!(stats.imbalance < 3.0, "imbalance {}", stats.imbalance);
    }

    #[test]
    fn cross_polytope_scores_are_signed_pairs() {
        let data = gaussian(50, 8, 9);
        let lsh = CrossPolytopeLsh::fit(&data, 8, 10);
        let scores = lsh.bin_scores(data.row(0));
        assert_eq!(scores.len(), 8);
        for j in 0..4 {
            assert!((scores[2 * j] + scores[2 * j + 1]).abs() < 1e-6);
        }
    }

    #[test]
    #[should_panic]
    fn cross_polytope_rejects_odd_bins() {
        let data = gaussian(10, 4, 1);
        let _ = CrossPolytopeLsh::fit(&data, 7, 1);
    }
}
