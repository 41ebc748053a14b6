//! Ensembling (§4.4.1, Algorithms 3 & 4).
//!
//! Multiple models are trained sequentially on the same dataset; after each model, every
//! point's weight is multiplied by the number of its k′ neighbours that the model placed
//! in a different bin, so the next model concentrates on the points the previous
//! partitions served poorly (an AdaBoost-style scheme, as the paper notes). At query time
//! each model reports a confidence (its maximum bin probability) and the candidate set of
//! the most confident model is searched (Algorithm 4).

use usp_data::KnnMatrix;
use usp_index::{PartitionIndex, Partitioner, SearchResult};
use usp_linalg::{topk, Distance, Matrix};

use crate::config::UspConfig;
use crate::trainer::{train_partitioner, TrainedPartitioner};

/// An ensemble of unsupervised partitioning models over one dataset.
pub struct UspEnsemble {
    indexes: Vec<PartitionIndex<TrainedPartitioner>>,
}

impl UspEnsemble {
    /// Trains `n_models` models sequentially with the boosting weight updates of
    /// Algorithm 3 and builds one lookup-table index per model.
    ///
    /// If the weights ever collapse to all-zero (a perfect partition served every point),
    /// they are reset to uniform so later models still train on a sensible objective.
    pub fn train(
        data: &Matrix,
        knn: &KnnMatrix,
        config: &UspConfig,
        n_models: usize,
        distance: Distance,
    ) -> Self {
        assert!(n_models >= 1, "UspEnsemble::train: need at least one model");
        let n = data.rows();
        let mut weights = vec![1.0f32; n];
        let mut indexes = Vec::with_capacity(n_models);

        for j in 0..n_models {
            let cfg = UspConfig {
                seed: config.seed.wrapping_add(j as u64 * 7919),
                ..config.clone()
            };
            let trained = train_partitioner(data, knn, &cfg, Some(&weights));

            // Weight update (Algorithm 3, step b): the new weight of point i counts how
            // many of its neighbours this model separated from it, multiplied into the
            // running weight so only consistently mis-served points stay heavy.
            let assignments = trained.assign_batch(data);
            let mut any_positive = false;
            for i in 0..n {
                let separated = knn
                    .neighbors_of(i)
                    .iter()
                    .filter(|&&p| assignments[p as usize] != assignments[i])
                    .count() as f32;
                weights[i] *= separated;
                if weights[i] > 0.0 {
                    any_positive = true;
                }
            }
            if !any_positive {
                weights.iter_mut().for_each(|w| *w = 1.0);
            } else {
                // Normalise to mean 1 so learning rates stay comparable across members.
                let mean: f32 = weights.iter().sum::<f32>() / n as f32;
                if mean > 0.0 {
                    weights.iter_mut().for_each(|w| *w /= mean);
                }
            }

            // The bins of that one batched assignment are the index's:
            // `PartitionIndex::build` would compute the same `assign_batch`.
            indexes.push(PartitionIndex::from_assignments(
                trained,
                data,
                assignments,
                distance,
            ));
        }

        Self { indexes }
    }

    /// Number of models in the ensemble.
    pub fn len(&self) -> usize {
        self.indexes.len()
    }

    /// True when the ensemble is empty (never constructed this way).
    pub fn is_empty(&self) -> bool {
        self.indexes.is_empty()
    }

    /// Per-model indexes.
    pub fn indexes(&self) -> &[PartitionIndex<TrainedPartitioner>] {
        &self.indexes
    }

    /// Total learnable parameters across the ensemble.
    pub fn num_parameters(&self) -> usize {
        self.indexes
            .iter()
            .map(|i| i.partitioner().num_parameters())
            .sum()
    }

    /// Algorithm 4: every model scores the query; the candidate set of the most confident
    /// model (highest maximum bin probability) is searched with `probes` bins.
    pub fn search_with_probes(&self, query: &[f32], k: usize, probes: usize) -> SearchResult {
        let mut best_model = 0usize;
        let mut best_confidence = f32::NEG_INFINITY;
        let mut best_scores = Vec::new();
        for (j, index) in self.indexes.iter().enumerate() {
            let scores = index.partitioner().bin_scores(query);
            let confidence = scores.iter().cloned().fold(f32::NEG_INFINITY, f32::max);
            if j == 0 || confidence > best_confidence {
                (best_model, best_confidence, best_scores) = (j, confidence, scores);
            }
        }
        // The winner's ranking from the scores already in hand (`rank_bins` would run
        // its forward a second time).
        let bins = topk::largest_k(&best_scores, probes.min(best_scores.len()));
        self.indexes[best_model].scan_bins(query, &bins, k, None)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use usp_data::{exact_knn, synthetic};

    fn setup() -> (Matrix, Matrix, KnnMatrix) {
        let ds = synthetic::sift_like(900, 8, 11).split_queries(60);
        let knn = KnnMatrix::build(ds.base.points(), 5, Distance::SquaredEuclidean);
        (ds.base.points().clone(), ds.queries, knn)
    }

    fn recall_at(ensemble: &UspEnsemble, data: &Matrix, queries: &Matrix, probes: usize) -> f64 {
        let truth = exact_knn(data, queries, 10, Distance::SquaredEuclidean);
        let mut recall = 0.0;
        for qi in 0..queries.rows() {
            let res = ensemble.search_with_probes(queries.row(qi), 10, probes);
            let t: std::collections::HashSet<usize> = truth[qi].iter().copied().collect();
            recall += res.ids.iter().filter(|i| t.contains(i)).count() as f64 / 10.0;
        }
        recall / queries.rows() as f64
    }

    #[test]
    fn ensemble_trains_requested_number_of_models() {
        let (data, _q, knn) = setup();
        let cfg = UspConfig {
            knn_k: 5,
            epochs: 8,
            ..UspConfig::fast(4)
        };
        let ens = UspEnsemble::train(&data, &knn, &cfg, 2, Distance::SquaredEuclidean);
        assert_eq!(ens.len(), 2);
        assert!(!ens.is_empty());
        assert!(ens.num_parameters() > 0);
    }

    #[test]
    fn ensemble_members_learn_different_partitions() {
        let (data, _q, knn) = setup();
        let cfg = UspConfig {
            knn_k: 5,
            epochs: 10,
            ..UspConfig::fast(4)
        };
        let ens = UspEnsemble::train(&data, &knn, &cfg, 2, Distance::SquaredEuclidean);
        let bins = |i: usize| -> Vec<_> {
            let index = &ens.indexes()[i];
            (0..data.rows()).map(|id| index.bin_of(id)).collect()
        };
        let (a, b) = (bins(0), bins(1));
        assert_ne!(
            a, b,
            "boosted members should produce complementary partitions"
        );
    }

    #[test]
    fn more_probes_never_reduce_recall() {
        let (data, queries, knn) = setup();
        let cfg = UspConfig {
            knn_k: 5,
            epochs: 20,
            ..UspConfig::fast(8)
        };
        let ens = UspEnsemble::train(&data, &knn, &cfg, 1, Distance::SquaredEuclidean);
        let r1 = recall_at(&ens, &data, &queries, 1);
        let r8 = recall_at(&ens, &data, &queries, 8);
        assert!(r8 >= r1, "recall dropped with more probes: {r1} -> {r8}");
        assert!(
            r8 > 0.95,
            "probing every bin must recover nearly everything, got {r8}"
        );
    }

    #[test]
    fn beats_random_partition_recall_at_one_probe() {
        let (data, queries, knn) = setup();
        let cfg = UspConfig {
            knn_k: 5,
            epochs: 25,
            ..UspConfig::fast(8)
        };
        let ens = UspEnsemble::train(&data, &knn, &cfg, 1, Distance::SquaredEuclidean);
        let recall = recall_at(&ens, &data, &queries, 1);
        // A random balanced 8-bin partition would give ~1/8 recall at one probe.
        assert!(recall > 0.35, "1-probe recall {recall} barely beats random");
    }

    #[test]
    fn infers_once_and_routes_once_like_build_index_and_search() {
        // Algorithm 3 reuses the weight update's batched assignments and Algorithm 4 the
        // winner's scores; both must be what the one-row paths compute.
        let (data, queries, knn) = setup();
        let cfg = UspConfig {
            knn_k: 5,
            epochs: 8,
            ..UspConfig::fast(4)
        };
        let ens = UspEnsemble::train(&data, &knn, &cfg, 2, Distance::SquaredEuclidean);
        for index in ens.indexes() {
            // The batch contract: each bin is the one-row forward's.
            for i in 0..data.rows() {
                let per_row = index.partitioner().assign(data.row(i));
                assert_eq!(index.bin_of(i), Some(per_row));
            }
        }
        for probes in [1, 3] {
            for qi in 0..queries.rows() {
                let q = queries.row(qi);
                let confidence = |index: &PartitionIndex<TrainedPartitioner>| {
                    let scores = index.partitioner().bin_scores(q);
                    scores.into_iter().fold(f32::NEG_INFINITY, f32::max)
                };
                // The first of the most confident members, as Algorithm 4 picks it.
                let (mut winner, mut best) = (&ens.indexes()[0], f32::NEG_INFINITY);
                for index in ens.indexes() {
                    if confidence(index) > best {
                        (winner, best) = (index, confidence(index));
                    }
                }
                let want = winner.search(q, 10, probes);
                let got = ens.search_with_probes(q, 10, probes);
                assert_eq!(got.ids, want.ids, "query {qi} probes {probes}");
                assert_eq!(got.candidates_scanned, want.candidates_scanned);
            }
        }
    }
}
