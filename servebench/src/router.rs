//! Train once, index many times.
//!
//! `TrainedPartitioner` is not `Clone` and `PartitionIndex::build` consumes its
//! partitioner, so the exact, compressed, WAL-backed and recovery-base indexes of one run
//! would each need their own 2 s training. [`SharedRouter`] is the same trained model
//! behind an `Arc`; every method forwards, including the two batch methods, so the
//! one-GEMM route of the serving engines is kept.

use std::sync::Arc;

use usp_core::TrainedPartitioner;
use usp_index::Partitioner;
use usp_linalg::Matrix;

#[derive(Clone)]
pub struct SharedRouter(Arc<TrainedPartitioner>);

impl SharedRouter {
    pub fn new(trained: TrainedPartitioner) -> Self {
        Self(Arc::new(trained))
    }

    pub fn inner(&self) -> &TrainedPartitioner {
        &self.0
    }
}

impl Partitioner for SharedRouter {
    fn num_bins(&self) -> usize {
        self.0.num_bins()
    }
    fn bin_scores(&self, query: &[f32]) -> Vec<f32> {
        self.0.bin_scores(query)
    }
    fn assign(&self, query: &[f32]) -> usize {
        self.0.assign(query)
    }
    fn rank_bins(&self, query: &[f32], probes: usize) -> Vec<usize> {
        self.0.rank_bins(query, probes)
    }
    fn bin_scores_batch(&self, queries: &Matrix) -> Matrix {
        self.0.bin_scores_batch(queries)
    }
    fn rank_bins_batch(&self, queries: &Matrix, probes: usize) -> Vec<Vec<usize>> {
        self.0.rank_bins_batch(queries, probes)
    }
    fn num_parameters(&self) -> usize {
        self.0.num_parameters()
    }
    fn name(&self) -> String {
        self.0.name()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::fixture::Fixture;
    use crate::spec::SMOKE;

    #[test]
    fn shared_router_scores_are_bit_identical_to_the_inner_model() {
        let fx = Fixture::prepare(&SMOKE, 3);
        let router = &fx.router;
        let inner = router.inner();
        let queries = fx.queries.select_rows(&(0..40).collect::<Vec<_>>());
        let bits = |m: &Matrix| m.as_slice().iter().map(|v| v.to_bits()).collect::<Vec<_>>();
        assert_eq!(
            bits(&router.bin_scores_batch(&queries)),
            bits(&inner.bin_scores_batch(&queries))
        );
        assert_eq!(
            router.rank_bins_batch(&queries, 3),
            inner.rank_bins_batch(&queries, 3)
        );
        for qi in 0..queries.rows() {
            let q = queries.row(qi);
            let a: Vec<u32> = router.bin_scores(q).iter().map(|v| v.to_bits()).collect();
            let b: Vec<u32> = inner.bin_scores(q).iter().map(|v| v.to_bits()).collect();
            assert_eq!(a, b, "row {qi}");
            assert_eq!(router.assign(q), inner.assign(q));
        }
        assert_eq!(router.num_bins(), inner.num_bins());
        assert_eq!(router.num_parameters(), inner.num_parameters());
    }
}
