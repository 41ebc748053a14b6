//! Partition + quantized-search pipelines (§5.4.3, Figure 7).
//!
//! The paper's strongest end-to-end configuration first restricts the search to the
//! candidate set produced by a partitioner (the unsupervised partitioner, or K-means for
//! the "K-means + ScaNN" baseline) and then searches that candidate set with ScaNN-style
//! anisotropic quantization. That is what a [`PartitionIndex`] under
//! [`Scoring::compressed`] does — ADC-score the probed bins' contiguous codes, keep a
//! shortlist, re-rank it exactly (`usp_index::stream`) — so [`PartitionedScann`] *is*
//! such an index, built with the quantizer a [`ScannConfig`] describes, plus a default
//! probe count. It holds one copy of the vectors, and Figure 7 times the code path the
//! served engine runs.

use usp_index::{AnnSearcher, PartitionIndex, Partitioner, SearchResult};
use usp_linalg::{Distance, Matrix};
use usp_quant::ScannConfig;

/// A partitioner-then-quantized-search pipeline.
pub struct PartitionedScann<P: Partitioner> {
    index: PartitionIndex<P>,
    scann_name: String,
    probes: usize,
}

impl<P: Partitioner> PartitionedScann<P> {
    /// Builds the pipeline: fits the quantizer `scann_config` describes on `data` and
    /// builds the partitioner's index over bin-contiguous rows and codes, re-ranking
    /// `scann_config.rerank_size` (at least `k`) ADC survivors exactly per query.
    pub fn build(partitioner: P, data: &Matrix, scann_config: ScannConfig, probes: usize) -> Self {
        let (_, scoring) = scann_config.fit_scoring(data);
        Self {
            index: PartitionIndex::build(partitioner, data, scann_config.distance)
                .with_scoring(scoring),
            scann_name: scann_config.name(),
            probes: probes.max(1),
        }
    }

    /// The compressed partition index the pipeline searches.
    pub fn index(&self) -> &PartitionIndex<P> {
        &self.index
    }

    /// Searches with an explicit probe count.
    pub fn search_with_probes(&self, query: &[f32], k: usize, probes: usize) -> SearchResult {
        self.index.search(query, k, probes)
    }

    /// Mean number of candidate points produced by the partitioner at the configured probe
    /// count (before the quantized shortlist), for reporting.
    pub fn mean_partition_candidates(&self, queries: &Matrix) -> f64 {
        let mut total = 0usize;
        for qi in 0..queries.rows() {
            total += self.index.candidates(queries.row(qi), self.probes).len();
        }
        total as f64 / queries.rows().max(1) as f64
    }
}

impl<P: Partitioner> AnnSearcher for PartitionedScann<P> {
    fn search(&self, query: &[f32], k: usize) -> SearchResult {
        self.search_with_probes(query, k, self.probes)
    }

    fn name(&self) -> String {
        format!("{} + {}", self.index.partitioner().name(), self.scann_name)
    }
}

/// Convenience constructor for the exact Figure 7 pipelines at a given probe count.
pub fn usp_plus_scann<P: Partitioner>(
    partitioner: P,
    data: &Matrix,
    probes: usize,
) -> PartitionedScann<P> {
    PartitionedScann::build(
        partitioner,
        data,
        ScannConfig {
            distance: Distance::SquaredEuclidean,
            ..ScannConfig::default()
        },
        probes,
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::UspConfig;
    use crate::trainer::train_partitioner;
    use usp_data::{exact_knn, synthetic, KnnMatrix};

    #[test]
    fn pipeline_restricts_search_to_partition_candidates() {
        let split = synthetic::sift_like(900, 16, 21).split_queries(40);
        let data = split.base.points();
        let knn = KnnMatrix::build(data, 5, Distance::SquaredEuclidean);
        let cfg = UspConfig {
            knn_k: 5,
            epochs: 20,
            ..UspConfig::fast(8)
        };
        let partitioner = train_partitioner(data, &knn, &cfg, None);
        let pipeline = usp_plus_scann(partitioner, data, 2);

        let truth = exact_knn(data, &split.queries, 10, Distance::SquaredEuclidean);
        let mut recall = 0.0;
        let mut scanned = 0usize;
        for qi in 0..split.queries.rows() {
            let res = pipeline.search(split.queries.row(qi), 10);
            let t: std::collections::HashSet<usize> = truth[qi].iter().copied().collect();
            recall += res.ids.iter().filter(|i| t.contains(i)).count() as f64 / 10.0;
            scanned += res.candidates_scanned;
        }
        recall /= split.queries.rows() as f64;
        let mean_exact = scanned as f64 / split.queries.rows() as f64;
        // The quantized shortlist keeps the exact re-ranking cost far below the dataset
        // size while retaining good recall on clustered data.
        assert!(
            mean_exact <= 100.0 + 1e-9,
            "exact evaluations per query {mean_exact}"
        );
        assert!(recall > 0.5, "pipeline recall {recall}");
        assert!(pipeline.name().contains("usp"));
        assert!(pipeline.mean_partition_candidates(&split.queries) > 0.0);
    }

    #[test]
    fn more_probes_improve_or_maintain_pipeline_recall() {
        let split = synthetic::sift_like(600, 8, 22).split_queries(30);
        let data = split.base.points();
        let knn = KnnMatrix::build(data, 5, Distance::SquaredEuclidean);
        let cfg = UspConfig {
            knn_k: 5,
            epochs: 15,
            ..UspConfig::fast(8)
        };
        let partitioner = train_partitioner(data, &knn, &cfg, None);
        let pipeline = usp_plus_scann(partitioner, data, 1);
        let truth = exact_knn(data, &split.queries, 10, Distance::SquaredEuclidean);
        let recall = |probes: usize| {
            let mut r = 0.0;
            for qi in 0..split.queries.rows() {
                let res = pipeline.search_with_probes(split.queries.row(qi), 10, probes);
                let t: std::collections::HashSet<usize> = truth[qi].iter().copied().collect();
                r += res.ids.iter().filter(|i| t.contains(i)).count() as f64 / 10.0;
            }
            r / split.queries.rows() as f64
        };
        assert!(recall(8) >= recall(1) - 1e-9);
    }

    #[test]
    fn pipeline_is_the_compressed_index() {
        use usp_index::partitioner::RoundRobinPartitioner;

        let split = synthetic::sift_like(500, 8, 23).split_queries(20);
        let data = split.base.points();
        let defaults = usp_plus_scann(RoundRobinPartitioner::new(8), data, 2);
        let custom = PartitionedScann::build(
            RoundRobinPartitioner::new(8),
            data,
            ScannConfig {
                rerank_size: 37,
                ..ScannConfig::default()
            },
            2,
        );
        for (pipeline, rerank) in [
            (&defaults, ScannConfig::default().rerank_size),
            (&custom, 37),
        ] {
            let index = pipeline.index();
            assert_eq!(index.compressed_rerank_budget(), Some(rerank));
            assert!(index.quantizer().is_some());
            for qi in 0..split.queries.rows() {
                let q = split.queries.row(qi);
                for probes in [1, 2, 8] {
                    let res = pipeline.search_with_probes(q, 10, probes);
                    assert_eq!(
                        res,
                        index.search(q, 10, probes),
                        "query {qi} probes {probes}"
                    );
                    assert_eq!(res.candidates_scanned, rerank.min(res.compressed_scanned));
                }
            }
        }
    }
}
