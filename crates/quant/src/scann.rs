//! A ScaNN-like searcher: anisotropic product quantization + ADC scan + exact re-ranking.
//!
//! The paper's Figure 7 uses ScaNN in two ways: standalone ("vanilla ScaNN": quantized scan
//! over the whole dataset) and as the *within-candidate-set* search of partitioning
//! pipelines ("USP + ScaNN", "K-means + ScaNN"). [`ScannSearcher`] is the standalone
//! baseline: [`ScannSearcher::search`] scans every code, and
//! [`ScannSearcher::search_in_candidates`] scores a caller-supplied id list by gather.
//! The partition pipelines in `usp-core` do not go through it: they hand the quantizer
//! [`ScannConfig::quantizer_config`] describes to a compressed `PartitionIndex`, which
//! scores bin-contiguous codes (`usp_index::stream`). [`ScannConfig`] is what the two
//! share, so both fit the same codebooks and print the same name.

use rayon::prelude::*;
use serde::{Deserialize, Serialize};
use usp_index::{AnnSearcher, SearchResult};
use usp_linalg::kernel::{self, AdcTable};
use usp_linalg::{topk, Distance, Matrix};

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

    /// The searcher name reports print for this configuration.
    pub fn name(&self) -> String {
        format!(
            "scann(m={},k*={},eta={},rerank={})",
            self.n_subspaces, self.n_centroids, self.eta, self.rerank_size
        )
    }
}

/// Anisotropic-PQ index over a dataset with exact re-ranking.
pub struct ScannSearcher {
    pq: ProductQuantizer,
    codes: Vec<u8>,
    data: Matrix,
    config: ScannConfig,
}

impl ScannSearcher {
    /// Trains the quantizer and encodes the dataset.
    pub fn build(data: &Matrix, config: ScannConfig) -> Self {
        let pq = ProductQuantizer::fit(data, &config.quantizer_config());
        let codes = pq.encode_all(data);
        Self {
            pq,
            codes,
            data: data.clone(),
            config,
        }
    }

    /// Number of indexed points.
    pub fn len(&self) -> usize {
        self.data.rows()
    }

    /// True when no points are indexed.
    pub fn is_empty(&self) -> bool {
        self.data.rows() == 0
    }

    /// The underlying product quantizer.
    pub fn quantizer(&self) -> &ProductQuantizer {
        &self.pq
    }

    fn code_of(&self, id: usize) -> &[u8] {
        let m = self.pq.n_subspaces();
        &self.codes[id * m..(id + 1) * m]
    }

    /// The per-query ADC table for this searcher's metric — build it once per query
    /// and reuse it across candidate lists via
    /// [`Self::search_in_candidates_with_table`].
    pub fn adc_table(&self, query: &[f32]) -> AdcTable {
        self.pq.adc_table(self.config.distance, query)
    }

    /// ADC-scores a set of candidate ids, exactly re-ranks the best
    /// `max(rerank_size, k)` of them, and returns the top `k`.
    ///
    /// `candidates_scanned` in the returned result counts the *exact* distance evaluations
    /// (the re-ranked prefix), which is the cost axis shared with the partitioning methods;
    /// the ADC pass costs one table lookup per subspace per candidate and is reported
    /// in `compressed_scanned`.
    pub fn search_in_candidates(
        &self,
        query: &[f32],
        candidates: &[u32],
        k: usize,
    ) -> SearchResult {
        let table = self.adc_table(query);
        self.search_in_candidates_with_table(query, &table, candidates, k)
    }

    /// [`Self::search_in_candidates`] with a caller-built table (see
    /// [`Self::adc_table`]), so one table serves many candidate lists or a whole
    /// batch. Scoring goes through the workspace's single blocked ADC kernel
    /// ([`usp_linalg::kernel::adc_eval`]).
    pub fn search_in_candidates_with_table(
        &self,
        query: &[f32],
        table: &AdcTable,
        candidates: &[u32],
        k: usize,
    ) -> SearchResult {
        if candidates.is_empty() {
            return SearchResult::empty();
        }
        let rerank = self.config.rerank_size.max(k).min(candidates.len());
        let shortlist = topk::smallest_k_by(candidates.len(), rerank, |i| {
            kernel::adc_eval(table, self.code_of(candidates[i] as usize))
        });
        let exact_ids: Vec<u32> = shortlist.iter().map(|&i| candidates[i]).collect();
        let ids = usp_index::rerank::rerank(&self.data, query, &exact_ids, k, self.config.distance);
        SearchResult::new(ids, rerank).with_compressed_scanned(candidates.len())
    }

    /// Full-dataset quantized search (the "vanilla ScaNN" baseline of Figure 7).
    pub fn search_all(&self, query: &[f32], k: usize) -> SearchResult {
        let all: Vec<u32> = (0..self.data.rows() as u32).collect();
        self.search_in_candidates(query, &all, k)
    }
}

impl AnnSearcher for ScannSearcher {
    fn search(&self, query: &[f32], k: usize) -> SearchResult {
        self.search_all(query, k)
    }

    /// Parallel batch path: one ADC table per query through the batch-table API, the
    /// full-id candidate list allocated once — element-wise identical to per-row
    /// [`Self::search`] (tables are pure functions of the query).
    fn search_batch(&self, queries: &Matrix, k: usize) -> Vec<SearchResult> {
        let all: Vec<u32> = (0..self.data.rows() as u32).collect();
        let tables = self.pq.adc_tables_batch(self.config.distance, queries);
        (0..queries.rows())
            .into_par_iter()
            .map(|qi| self.search_in_candidates_with_table(queries.row(qi), &tables[qi], &all, k))
            .collect()
    }

    fn name(&self) -> String {
        self.config.name()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use usp_data::exact_knn;
    use usp_linalg::rng as lrng;

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

    #[test]
    fn candidate_restricted_search_only_returns_candidates() {
        let data = clustered(300, 8, 2);
        let scann = ScannSearcher::build(
            &data,
            ScannConfig {
                rerank_size: 20,
                ..Default::default()
            },
        );
        let candidates: Vec<u32> = (100..200).collect();
        let res = scann.search_in_candidates(data.row(150), &candidates, 5);
        assert_eq!(res.ids.len(), 5);
        assert!(res.ids.iter().all(|&id| (100..200).contains(&id)));
        assert!(res.ids.contains(&150));
        assert!(res.candidates_scanned <= 20);
    }

    #[test]
    fn empty_candidates_return_empty() {
        let data = clustered(50, 4, 3);
        let scann = ScannSearcher::build(&data, ScannConfig::default());
        let res = scann.search_in_candidates(data.row(0), &[], 5);
        assert!(res.ids.is_empty());
        assert_eq!(res.candidates_scanned, 0);
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
