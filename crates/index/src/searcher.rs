//! The common search interface used by the evaluation harness.
//!
//! Figure 5/6 sweeps plot k-NN accuracy against *candidate-set size*; Figure 7 compares
//! end-to-end methods (partition + sketch pipelines, HNSW, IVF-Flat). [`SearchResult`] carries
//! both the returned ids and the number of points actually scanned so every method is
//! measured on the same axes.

use serde::{Deserialize, Serialize};
use usp_linalg::Matrix;

/// The outcome of one approximate k-NN query.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct SearchResult {
    /// Returned point ids, closest first.
    pub ids: Vec<usize>,
    /// Number of base points whose distance to the query was evaluated **exactly**
    /// (the candidate-set size `|C|` for partitioning methods; visited nodes for graph
    /// methods; the re-ranked shortlist for compressed two-phase scans).
    pub candidates_scanned: usize,
    /// Number of candidates scored in the compressed domain (ADC lookups) before the
    /// exact pass — 0 for purely exact methods. `candidates_scanned /
    /// compressed_scanned` is the survivor ratio of a two-phase scan.
    pub compressed_scanned: usize,
}

impl SearchResult {
    /// Creates a result of an exact scan (no compressed pass).
    pub fn new(ids: Vec<usize>, candidates_scanned: usize) -> Self {
        Self {
            ids,
            candidates_scanned,
            compressed_scanned: 0,
        }
    }

    /// Sets the compressed-pass candidate count of a two-phase scan.
    pub fn with_compressed_scanned(mut self, compressed_scanned: usize) -> Self {
        self.compressed_scanned = compressed_scanned;
        self
    }

    /// An empty result.
    pub fn empty() -> Self {
        Self {
            ids: Vec::new(),
            candidates_scanned: 0,
            compressed_scanned: 0,
        }
    }
}

/// Anything that can answer approximate k-NN queries.
///
/// Implementations should make `search` deterministic for a fixed index so experiment
/// sweeps are reproducible.
pub trait AnnSearcher: Send + Sync {
    /// Returns (up to) `k` approximate nearest neighbours of `query`.
    fn search(&self, query: &[f32], k: usize) -> SearchResult;

    /// Answers every row of `queries` as an independent query.
    ///
    /// The default implementation answers sequentially in row order. Implementations
    /// with a parallel batch path (e.g. [`crate::PartitionIndex`]) override it, but the
    /// contract is fixed either way: the result **must be element-wise identical** to
    /// calling [`AnnSearcher::search`] once per row — batching is an execution
    /// strategy, never a semantic change. The serving layer's equivalence tests pin
    /// this for every pool size.
    fn search_batch(&self, queries: &Matrix, k: usize) -> Vec<SearchResult> {
        (0..queries.rows())
            .map(|qi| self.search(queries.row(qi), k))
            .collect()
    }

    /// Short human-readable name used in reports.
    fn name(&self) -> String;
}

#[cfg(test)]
mod tests {
    use super::*;

    struct Dummy;
    impl AnnSearcher for Dummy {
        fn search(&self, _query: &[f32], k: usize) -> SearchResult {
            SearchResult::new((0..k).collect(), k * 2)
        }
        fn name(&self) -> String {
            "dummy".into()
        }
    }

    #[test]
    fn trait_object_usable() {
        let s: Box<dyn AnnSearcher> = Box::new(Dummy);
        let r = s.search(&[0.0], 3);
        assert_eq!(r.ids, vec![0, 1, 2]);
        assert_eq!(r.candidates_scanned, 6);
        assert_eq!(s.name(), "dummy");
    }

    #[test]
    fn empty_result() {
        let r = SearchResult::empty();
        assert!(r.ids.is_empty());
        assert_eq!(r.candidates_scanned, 0);
    }
}
