//! ScaNN-like search: anisotropic product quantization + ADC scan + exact re-ranking.
//!
//! The paper's Figure 7 uses ScaNN in two ways: standalone ("vanilla ScaNN": quantized scan
//! over the whole dataset) and as the *within-candidate-set* search of partitioning
//! pipelines ("USP + ScaNN", "K-means + ScaNN"). Both are the compressed `PartitionIndex`
//! [`ScannConfig::build_index`] builds — ADC-score contiguous codes, keep a shortlist,
//! re-rank it exactly (`usp_index::stream`) — over a real partitioner's bins for the
//! pipelines and over a single bin holding the whole dataset for vanilla ScaNN. So the
//! series Figure 7 compares differ in the partition and in nothing else.

use std::sync::Arc;

use usp_index::{PartitionIndex, Partitioner, Scoring};
use usp_linalg::{Distance, Matrix};

use crate::pq::{ProductQuantizer, ProductQuantizerConfig};

/// Configuration of the ScaNN-like search.
#[derive(Debug, Clone)]
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

    /// The compressed index Figure 7's ScaNN series search: `partitioner`'s bins over
    /// bin-contiguous rows and the codes of [`Self::quantizer_config`]'s quantizer, fitted
    /// on `data`, re-ranking `rerank_size` ADC survivors exactly under `distance` by
    /// default. "USP + ScaNN" and "K-means + ScaNN" search it with
    /// `search(q, k, probes)`; "vanilla ScaNN" is the one-bin index of
    /// `RoundRobinPartitioner::new(1)`, scanned with `scan_bins(q, &[0], k, budget)`.
    pub fn build_index<P: Partitioner>(&self, partitioner: P, data: &Matrix) -> PartitionIndex<P> {
        let pq = ProductQuantizer::fit(data, &self.quantizer_config());
        // A `rerank_size` of 0 has always meant "re-rank `k`"; the index floors its
        // budget at `k` per query but wants a positive default.
        let scoring = Scoring::compressed(Arc::new(pq), self.rerank_size.max(1));
        PartitionIndex::build(partitioner, data, self.distance).with_scoring(scoring)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use usp_data::exact_knn;
    use usp_index::partitioner::RoundRobinPartitioner;
    use usp_index::SearchResult;
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

    /// Vanilla ScaNN: the one-bin compressed index over the whole dataset.
    fn vanilla(data: &Matrix, rerank_size: usize) -> PartitionIndex<RoundRobinPartitioner> {
        let config = ScannConfig {
            rerank_size,
            ..Default::default()
        };
        config.build_index(RoundRobinPartitioner::new(1), data)
    }

    #[test]
    fn full_search_has_high_recall() {
        let data = clustered(800, 16, 1);
        let scann = vanilla(&data, 60);
        let queries = clustered(15, 16, 77);
        let truth = exact_knn(&data, &queries, 10, Distance::SquaredEuclidean);
        let mut recall = 0.0;
        for qi in 0..queries.rows() {
            let res = scann.scan_bins(queries.row(qi), &[0], 10, None);
            let t: std::collections::HashSet<usize> = truth[qi].iter().copied().collect();
            recall += res.ids.iter().filter(|i| t.contains(i)).count() as f64 / 10.0;
        }
        recall /= queries.rows() as f64;
        assert!(recall > 0.85, "ScaNN-like recall too low: {recall}");
    }

    /// The id-gather algorithm vanilla ScaNN was before it became an index: ADC-score
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
        // The fit is deterministic in the seed: the reference's quantizer is the index's.
        let pq = ProductQuantizer::fit(&data, &ScannConfig::default().quantizer_config());
        for rerank in [1, k, 37, n] {
            let scann = vanilla(&data, rerank);
            for qi in 0..queries.rows() {
                let q = queries.row(qi);
                let expect = gathered_reference(&data, &pq, q, k, rerank);
                assert_eq!(
                    scann.scan_bins(q, &[0], k, None),
                    expect,
                    "query {qi} rerank {rerank}"
                );
                // The per-query budget is the same knob as the configured one.
                let budgeted = scann.scan_bins(q, &[0], k, Some(37));
                let expect = gathered_reference(&data, &pq, q, k, 37);
                assert_eq!(budgeted, expect, "query {qi} budget 37");
            }
            let batch = scann.search_batch(&queries, k, 1);
            for (qi, res) in batch.iter().enumerate() {
                let expect = scann.scan_bins(queries.row(qi), &[0], k, None);
                assert_eq!(res, &expect, "batch row {qi}");
            }
        }
    }

    #[test]
    fn rerank_budget_bounds_exact_evaluations() {
        let data = clustered(500, 8, 4);
        let res = vanilla(&data, 37).scan_bins(data.row(0), &[0], 10, None);
        assert_eq!(res.candidates_scanned, 37);
    }

    #[test]
    fn build_index_is_the_compressed_index() {
        let data = clustered(500, 8, 23);
        let queries = clustered(20, 8, 79);
        let custom = ScannConfig {
            rerank_size: 37,
            ..ScannConfig::default()
        };
        for config in [ScannConfig::default(), custom] {
            let index = config.build_index(RoundRobinPartitioner::new(8), &data);
            let rerank = config.rerank_size;
            assert_eq!(index.compressed_rerank_budget(), Some(rerank));
            assert!(index.quantizer().is_some());
            for qi in 0..queries.rows() {
                for probes in [1, 2, 8] {
                    let res = index.search(queries.row(qi), 10, probes);
                    assert_eq!(
                        res.candidates_scanned,
                        rerank.min(res.compressed_scanned),
                        "query {qi} probes {probes}"
                    );
                }
            }
        }
    }
}
