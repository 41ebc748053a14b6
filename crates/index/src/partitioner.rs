//! The [`Partitioner`] trait: the common contract between every space-partitioning method
//! and the shared online-phase machinery.

use rayon::prelude::*;
use usp_linalg::{topk, Matrix};

/// A space partition of `R^d` into `m` bins that can score bins for an arbitrary query.
///
/// The unsupervised partitioner outputs a softmax distribution over bins; K-means scores
/// bins by (negative) centroid distance; LSH and tree methods score their own bin 1.0 and
/// everything else 0.0 (or a ranked fallback). The only requirement is that **larger
/// scores mean more probable bins**, so that ranking bins by score implements the
/// "search the `m′` most probable bins" step of Algorithm 2.
///
/// The two batch methods, [`Partitioner::bin_scores_batch`] and
/// [`Partitioner::assign_batch`], share one contract: row `i` of the batch is the
/// one-row call's answer, bit for bit, for any pool size.
pub trait Partitioner: Send + Sync {
    /// Number of bins `m` in the partition.
    fn num_bins(&self) -> usize;

    /// Scores every bin for the query (length must equal [`Partitioner::num_bins`]).
    fn bin_scores(&self, query: &[f32]) -> Vec<f32>;

    /// The most probable bin for a query.
    ///
    /// When no bin has a comparable score — an empty score vector or a NaN-poisoned
    /// query turning every score NaN — this deterministically falls back to bin 0
    /// rather than propagating whatever index a NaN comparison happened to leave, so a
    /// single pathological query cannot corrupt the serving path.
    fn assign(&self, query: &[f32]) -> usize {
        let scores = self.bin_scores(query);
        debug_assert_eq!(
            scores.len(),
            self.num_bins(),
            "bin_scores must score every bin"
        );
        topk::argmax(&scores).unwrap_or(0)
    }

    /// The most probable bin for every row of `points` — the offline phase's last
    /// step (Algorithm 1 step 3), which fills the lookup table, and the assignment an
    /// ensemble re-weights from (Algorithm 3).
    ///
    /// **Contract:** entry `i` must be **bit-identical** to `assign(points.row(i))`,
    /// for any pool size — the batch contract of [`Partitioner::bin_scores_batch`].
    /// The default assigns rows in parallel on the pool, one `assign` a row; the
    /// trained router overrides it with blocks of rows through one batched forward.
    fn assign_batch(&self, points: &Matrix) -> Vec<usize> {
        (0..points.rows())
            .into_par_iter()
            .map(|i| self.assign(points.row(i)))
            .collect()
    }

    /// The `probes` most probable bins, most probable first.
    fn rank_bins(&self, query: &[f32], probes: usize) -> Vec<usize> {
        let scores = self.bin_scores(query);
        topk::largest_k(&scores, probes.min(scores.len()))
    }

    /// Scores every bin for every row of `queries` — row `i` of the result is the
    /// score vector of query `i`.
    ///
    /// **Contract:** row `i` must be **bit-identical** to
    /// `bin_scores(queries.row(i))` — batching is an execution strategy, never a
    /// semantic change. That is what lets the serving engines route a whole
    /// micro-batch through one call while staying answer-identical to the per-query
    /// Searcher path. The default scores rows in parallel on the pool (rows are
    /// independent, so the contract holds for any pool size); models with a natural
    /// batched forward (the trained MLP) override it with a single GEMM over the
    /// batch, which satisfies the contract because their forward treats rows
    /// independently.
    fn bin_scores_batch(&self, queries: &Matrix) -> Matrix {
        let m = self.num_bins();
        let mut out = Matrix::zeros(queries.rows(), m);
        out.as_mut_slice()
            .par_chunks_mut(m.max(1))
            .enumerate()
            .for_each(|(qi, row)| {
                if m > 0 {
                    let scores = self.bin_scores(queries.row(qi));
                    debug_assert_eq!(scores.len(), m);
                    row.copy_from_slice(&scores);
                }
            });
        out
    }

    /// The `probes` most probable bins per row of `queries`, most probable first —
    /// the batched route step of the online phase, built on
    /// [`Partitioner::bin_scores_batch`] so one partitioner forward serves the whole
    /// micro-batch, with the per-row selections fanned out on the pool. Row `i`
    /// equals `rank_bins(queries.row(i), probes)` bit for bit (same scores by the
    /// batch contract, same selection, rows independent).
    fn rank_bins_batch(&self, queries: &Matrix, probes: usize) -> Vec<Vec<usize>> {
        let scores = self.bin_scores_batch(queries);
        (0..queries.rows())
            .into_par_iter()
            .map(|qi| {
                let row = scores.row(qi);
                topk::largest_k(row, probes.min(row.len()))
            })
            .collect()
    }

    /// Number of learnable parameters (Table 2 of the paper); 0 for non-learned methods.
    fn num_parameters(&self) -> usize {
        0
    }

    /// Short human-readable name used in reports.
    fn name(&self) -> String;
}

impl<P: Partitioner + ?Sized> Partitioner for Box<P> {
    fn num_bins(&self) -> usize {
        (**self).num_bins()
    }
    fn bin_scores(&self, query: &[f32]) -> Vec<f32> {
        (**self).bin_scores(query)
    }
    fn assign(&self, query: &[f32]) -> usize {
        (**self).assign(query)
    }
    fn assign_batch(&self, points: &Matrix) -> Vec<usize> {
        (**self).assign_batch(points)
    }
    fn rank_bins(&self, query: &[f32], probes: usize) -> Vec<usize> {
        (**self).rank_bins(query, probes)
    }
    fn bin_scores_batch(&self, queries: &Matrix) -> Matrix {
        (**self).bin_scores_batch(queries)
    }
    fn rank_bins_batch(&self, queries: &Matrix, probes: usize) -> Vec<Vec<usize>> {
        (**self).rank_bins_batch(queries, probes)
    }
    fn num_parameters(&self) -> usize {
        (**self).num_parameters()
    }
    fn name(&self) -> String {
        (**self).name()
    }
}

/// A trivial partitioner assigning every point to one of `m` bins round-robin by a hash of
/// the first coordinate. Useful as a worst-case control and in tests.
#[derive(Debug, Clone)]
pub struct RoundRobinPartitioner {
    bins: usize,
}

impl RoundRobinPartitioner {
    /// Creates a round-robin partitioner over `bins` bins.
    pub fn new(bins: usize) -> Self {
        assert!(bins > 0);
        Self { bins }
    }
}

impl Partitioner for RoundRobinPartitioner {
    fn num_bins(&self) -> usize {
        self.bins
    }

    fn bin_scores(&self, query: &[f32]) -> Vec<f32> {
        // Hash the query's bits into a bin; every other bin gets a deterministic
        // decreasing score so rank_bins stays well defined.
        let mut h = 0u64;
        for &v in query {
            h = h.wrapping_mul(31).wrapping_add(v.to_bits() as u64);
        }
        let chosen = (h % self.bins as u64) as usize;
        (0..self.bins)
            .map(|b| {
                if b == chosen {
                    1.0
                } else {
                    1.0 / (2.0 + ((b + self.bins - chosen) % self.bins) as f32)
                }
            })
            .collect()
    }

    fn name(&self) -> String {
        "round-robin".to_string()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn default_assign_is_argmax_of_scores() {
        let p = RoundRobinPartitioner::new(8);
        let q = [1.0f32, 2.0, 3.0];
        let scores = p.bin_scores(&q);
        assert_eq!(Some(p.assign(&q)), topk::argmax(&scores));
        assert_eq!(scores.len(), 8);
    }

    #[test]
    fn rank_bins_starts_with_assign_and_has_no_duplicates() {
        let p = RoundRobinPartitioner::new(5);
        let q = [0.25f32, -1.0];
        let ranked = p.rank_bins(&q, 5);
        assert_eq!(ranked[0], p.assign(&q));
        let unique: std::collections::HashSet<_> = ranked.iter().collect();
        assert_eq!(unique.len(), ranked.len());
    }

    #[test]
    fn rank_bins_respects_probe_budget() {
        let p = RoundRobinPartitioner::new(10);
        assert_eq!(p.rank_bins(&[1.0], 3).len(), 3);
        assert_eq!(p.rank_bins(&[1.0], 99).len(), 10);
    }

    #[test]
    fn batched_scoring_and_ranking_match_per_query_bitwise() {
        let p = RoundRobinPartitioner::new(6);
        let queries = Matrix::from_vec(4, 2, vec![0.5, -1.0, 2.25, 3.0, -0.125, 0.0, 9.5, -2.5]);
        let scores = p.bin_scores_batch(&queries);
        assert_eq!(scores.shape(), (4, 6));
        let ranked = p.rank_bins_batch(&queries, 3);
        for qi in 0..4 {
            let single = p.bin_scores(queries.row(qi));
            assert_eq!(scores.row(qi), &single[..], "scores row {qi}");
            assert_eq!(ranked[qi], p.rank_bins(queries.row(qi), 3), "rank row {qi}");
        }
    }

    #[test]
    fn deterministic_assignment() {
        let p = RoundRobinPartitioner::new(16);
        assert_eq!(p.assign(&[0.5, 0.25]), p.assign(&[0.5, 0.25]));
    }

    /// A partitioner whose scores are all NaN (e.g. a NaN query through a softmax).
    struct NanScorer {
        bins: usize,
    }

    impl Partitioner for NanScorer {
        fn num_bins(&self) -> usize {
            self.bins
        }
        fn bin_scores(&self, _query: &[f32]) -> Vec<f32> {
            vec![f32::NAN; self.bins]
        }
        fn name(&self) -> String {
            "nan".into()
        }
    }

    #[test]
    fn nan_scores_fall_back_deterministically() {
        let p = NanScorer { bins: 6 };
        // assign falls back to bin 0; rank_bins degrades to index order — both
        // deterministic, neither panics, so one poisoned query cannot corrupt serving.
        assert_eq!(p.assign(&[f32::NAN]), 0);
        assert_eq!(p.rank_bins(&[f32::NAN], 3), vec![0, 1, 2]);
    }
}
