//! A ScaNN-like searcher: anisotropic product quantization + ADC scan + exact re-ranking.
//!
//! The paper's Figure 7 uses ScaNN in two ways: standalone ("vanilla ScaNN": quantized scan
//! over the whole dataset) and as the *within-candidate-set* search of partitioning
//! pipelines ("USP + ScaNN", "K-means + ScaNN"). Both are a compressed `PartitionIndex`
//! — ADC-score contiguous codes, keep a shortlist, re-rank it exactly
//! (`usp_index::stream`) — under the scoring [`ScannConfig::fit_scoring`] builds: the
//! pipelines in `usp-core` over a real partitioner's bins, [`ScannSearcher`] over a
//! single bin holding the whole dataset. So the series Figure 7 compares differ in the
//! partition and in nothing else.

use std::sync::Arc;

use serde::{Deserialize, Serialize};
use usp_index::partitioner::RoundRobinPartitioner;
use usp_index::{AnnSearcher, PartitionIndex, Scoring, SearchResult};
use usp_linalg::{Distance, Matrix};

use crate::pq::{ProductQuantizer, ProductQuantizerConfig};

/// Configuration of the ScaNN-like searcher.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct ScannConfig {
    /// Number of PQ subspaces.
    pub n_subspaces: usize,
    /// Centroids per subspace (≤ 256).
    pub n_centroids: usize,
    /// Anisotropic weight η (≥ 1; 1.0 degrades to classic PQ).
    pub eta: f32,
    /// How many of the best quantized candidates are re-ranked with exact distances.
    pub rerank_size: usize,
    /// Distance used for the exact re-ranking step.
    pub distance: Distance,
    /// RNG seed for codebook training.
    pub seed: u64,
}

impl Default for ScannConfig {
    fn default() -> Self {
        Self {
            n_subspaces: 8,
            n_centroids: 16,
            eta: 4.0,
            rerank_size: 100,
            distance: Distance::SquaredEuclidean,
            seed: 42,
        }
    }
}

impl ScannConfig {
    /// The quantizer this configuration describes: anisotropic codebooks when
    /// `eta > 1`, classic PQ otherwise, trained from `seed`.
    pub fn quantizer_config(&self) -> ProductQuantizerConfig {
        let mut config = if self.eta > 1.0 {
            ProductQuantizerConfig::anisotropic(self.n_subspaces, self.n_centroids, self.eta)
        } else {
            ProductQuantizerConfig::standard(self.n_subspaces, self.n_centroids)
        };
        config.seed = self.seed;
        config
    }

    /// Fits that quantizer on `data` and wraps it as an index's compressed scoring
    /// mode, re-ranking `rerank_size` ADC survivors exactly per query by default.
    pub fn fit_scoring(&self, data: &Matrix) -> (Arc<ProductQuantizer>, Scoring) {
        let pq = Arc::new(ProductQuantizer::fit(data, &self.quantizer_config()));
        // A `rerank_size` of 0 has always meant "re-rank `k`"; the index floors its
        // budget at `k` per query but wants a positive default.
        let scoring = Scoring::compressed(pq.clone(), self.rerank_size.max(1));
        (pq, scoring)
    }

    /// The searcher name reports print for this configuration.
    pub fn name(&self) -> String {
        format!(
            "scann(m={},k*={},eta={},rerank={})",
            self.n_subspaces, self.n_centroids, self.eta, self.rerank_size
        )
    }
}

/// Anisotropic-PQ scan of a whole dataset with exact re-ranking: a compressed
/// [`PartitionIndex`] whose one bin holds every point, plus its name.
pub struct ScannSearcher {
    index: PartitionIndex<RoundRobinPartitioner>,
    name: String,
}

impl ScannSearcher {
    /// Trains the quantizer and encodes the dataset.
    pub fn build(data: &Matrix, config: ScannConfig) -> Self {
        let (_, scoring) = config.fit_scoring(data);
        Self {
            index: PartitionIndex::build(RoundRobinPartitioner::new(1), data, config.distance)
                .with_scoring(scoring),
            name: config.name(),
        }
    }

    /// Number of indexed points.
    pub fn len(&self) -> usize {
        self.index.assignments().len()
    }

    /// True when no points are indexed.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// The one-bin compressed index the searcher scans; its per-query budget
    /// (`index().scan_bins(q, &[0], k, Some(r))`) overrides `rerank_size`.
    pub fn index(&self) -> &PartitionIndex<RoundRobinPartitioner> {
        &self.index
    }

    /// Full-dataset quantized search (the "vanilla ScaNN" baseline of Figure 7):
    /// ADC-scores every code (`compressed_scanned`) and exactly re-ranks the best
    /// `max(rerank_size, k)` of them (`candidates_scanned`, the cost axis shared with
    /// the partitioning methods).
    pub fn search_all(&self, query: &[f32], k: usize) -> SearchResult {
        self.index.scan_bins(query, &[0], k, None)
    }
}

impl AnnSearcher for ScannSearcher {
    fn search(&self, query: &[f32], k: usize) -> SearchResult {
        self.search_all(query, k)
    }

    fn search_batch(&self, queries: &Matrix, k: usize) -> Vec<SearchResult> {
        self.index.search_batch(queries, k, 1)
    }

    fn name(&self) -> String {
        self.name.clone()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use usp_data::exact_knn;
    use usp_linalg::{kernel, rng as lrng, topk};

    const DIST: Distance = Distance::SquaredEuclidean;

    fn clustered(n: usize, d: usize, seed: u64) -> Matrix {
        let mut rng = lrng::seeded(seed);
        let mut m = Matrix::zeros(n, d);
        for i in 0..n {
            let c = (i % 6) as f32 * 8.0;
            for j in 0..d {
                m[(i, j)] = c + lrng::standard_normal(&mut rng);
            }
        }
        m
    }

    #[test]
    fn full_search_has_high_recall() {
        let data = clustered(800, 16, 1);
        let scann = ScannSearcher::build(
            &data,
            ScannConfig {
                rerank_size: 60,
                ..Default::default()
            },
        );
        let queries = clustered(15, 16, 77);
        let truth = exact_knn(&data, &queries, 10, Distance::SquaredEuclidean);
        let mut recall = 0.0;
        for qi in 0..queries.rows() {
            let res = scann.search(queries.row(qi), 10);
            let t: std::collections::HashSet<usize> = truth[qi].iter().copied().collect();
            recall += res.ids.iter().filter(|i| t.contains(i)).count() as f64 / 10.0;
        }
        recall /= queries.rows() as f64;
        assert!(recall > 0.85, "ScaNN-like recall too low: {recall}");
    }

    /// The id-gather algorithm `ScannSearcher` was before it became an index: ADC-score
    /// row-major codes one at a time, shortlist, gather-rerank.
    fn gathered_reference(
        data: &Matrix,
        pq: &ProductQuantizer,
        q: &[f32],
        k: usize,
        rerank: usize,
    ) -> SearchResult {
        let (n, m) = (data.rows(), pq.n_subspaces());
        let (codes, table) = (pq.encode_all(data), pq.adc_table(DIST, q));
        let keep = rerank.max(k).min(n);
        let shortlist: Vec<u32> = topk::smallest_k_by(n, keep, |i| {
            kernel::adc_eval(&table, &codes[i * m..(i + 1) * m])
        })
        .into_iter()
        .map(|i| i as u32)
        .collect();
        let ids = usp_index::rerank::rerank(data, q, &shortlist, k, DIST);
        SearchResult::new(ids, keep).with_compressed_scanned(n)
    }

    #[test]
    fn searcher_answers_exactly_as_the_gathered_reference() {
        let (n, k) = (300, 10);
        let data = clustered(n, 8, 2);
        let queries = clustered(12, 8, 78);
        for rerank in [1, k, 37, n] {
            let config = ScannConfig {
                rerank_size: rerank,
                ..Default::default()
            };
            // The fit is deterministic in the seed: the reference's quantizer is the
            // searcher's.
            let (pq, _) = config.fit_scoring(&data);
            let scann = ScannSearcher::build(&data, config);
            for qi in 0..queries.rows() {
                let q = queries.row(qi);
                let expect = gathered_reference(&data, &pq, q, k, rerank);
                assert_eq!(scann.search(q, k), expect, "query {qi} rerank {rerank}");
                // The per-query budget is the same knob as the configured one.
                let budgeted = scann.index().scan_bins(q, &[0], k, Some(37));
                let expect = gathered_reference(&data, &pq, q, k, 37);
                assert_eq!(budgeted, expect, "query {qi} budget 37");
            }
            let batch = scann.search_batch(&queries, k);
            for (qi, res) in batch.iter().enumerate() {
                assert_eq!(res, &scann.search(queries.row(qi), k), "batch row {qi}");
            }
        }
    }

    #[test]
    fn rerank_budget_bounds_exact_evaluations() {
        let data = clustered(500, 8, 4);
        let scann = ScannSearcher::build(
            &data,
            ScannConfig {
                rerank_size: 37,
                ..Default::default()
            },
        );
        let res = scann.search(data.row(0), 10);
        assert_eq!(res.candidates_scanned, 37);
    }

    #[test]
    fn searcher_name_mentions_parameters() {
        let data = clustered(60, 8, 5);
        let scann = ScannSearcher::build(&data, ScannConfig::default());
        assert!(scann.name().contains("scann"));
        assert!(!scann.is_empty());
        assert_eq!(scann.len(), 60);
    }
}
