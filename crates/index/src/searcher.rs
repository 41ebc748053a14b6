//! The outcome of one query, as the evaluation harness reads it.
//!
//! Figure 5/6 sweeps plot k-NN accuracy against *candidate-set size*; Figure 7 compares
//! end-to-end methods (partition + sketch pipelines, HNSW, IVF-Flat). [`SearchResult`] carries
//! both the returned ids and the number of points actually scanned so every method is
//! measured on the same axes.

/// The outcome of one approximate k-NN query.
#[derive(Debug, Clone, PartialEq, Eq)]
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

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn empty_result() {
        let r = SearchResult::empty();
        assert!(r.ids.is_empty());
        assert_eq!(r.candidates_scanned, 0);
    }
}
