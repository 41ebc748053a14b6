//! Algorithm 1 — the offline phase: train the model with the unsupervised loss, then run
//! inference over the dataset to produce the partition and its lookup table.

use usp_data::KnnMatrix;
use usp_index::Partitioner;
use usp_linalg::{rng as lrng, Matrix};
use usp_nn::Adam;

use crate::config::UspConfig;
use crate::loss::{neighbor_bin_targets, unsupervised_loss, LossValue};
use crate::model::PartitionModel;

/// Per-epoch training diagnostics.
#[derive(Debug, Clone)]
pub struct TrainingReport {
    /// Mean total loss per epoch.
    pub epoch_loss: Vec<f32>,
    /// Mean quality-term value per epoch.
    pub epoch_quality: Vec<f32>,
    /// Mean balance-term value per epoch.
    pub epoch_balance: Vec<f32>,
    /// Wall-clock training time in seconds (excludes the k′-NN matrix, which is reusable).
    pub seconds: f64,
    /// Number of learnable parameters of the trained model.
    pub parameters: usize,
}

/// A trained unsupervised partitioner: the model plus the bin count, usable directly as a
/// [`Partitioner`].
pub struct TrainedPartitioner {
    model: PartitionModel,
    report: TrainingReport,
}

impl TrainedPartitioner {
    /// The underlying model.
    pub fn model(&self) -> &PartitionModel {
        &self.model
    }

    /// Training diagnostics.
    pub fn report(&self) -> &TrainingReport {
        &self.report
    }
}

impl Partitioner for TrainedPartitioner {
    fn num_bins(&self) -> usize {
        self.model.bins()
    }

    fn bin_scores(&self, query: &[f32]) -> Vec<f32> {
        self.model.probabilities(query)
    }

    /// One GEMM forward over the whole micro-batch instead of a per-query loop — the
    /// route-phase batching the serving engines key on. Bit-identical per row to
    /// [`Partitioner::bin_scores`] because the eval-mode network treats rows
    /// independently (per-row dot products, running batch-norm statistics, row-wise
    /// softmax), which `batched_bin_scores_match_per_query_bitwise` pins below.
    fn bin_scores_batch(&self, queries: &Matrix) -> Matrix {
        self.model.probabilities_batch(queries)
    }

    /// Blocks of rows through the whole eval network ([`PartitionModel::assign_batch`]):
    /// each bin is the argmax of [`Self::bin_scores_batch`]'s row, `topk::argmax`
    /// falling back to 0 as [`Partitioner::assign`] does, so entry `i` is
    /// `assign(points.row(i))` bit for bit.
    fn assign_batch(&self, points: &Matrix) -> Vec<usize> {
        self.model.assign_batch(points)
    }

    fn num_parameters(&self) -> usize {
        self.model.num_params()
    }

    fn name(&self) -> String {
        format!("usp({} bins)", self.model.bins())
    }
}

/// Trains one unsupervised partitioning model (Algorithm 1 steps 1–2; the k′-NN matrix is
/// passed in because it is shared across ensemble members and experiments).
///
/// `weights` are the per-point ensembling weights of Eq. 14 (`None` = uniform), which is
/// how [`crate::ensemble`] reuses this function for every member of an ensemble.
pub fn train_partitioner(
    data: &Matrix,
    knn: &KnnMatrix,
    config: &UspConfig,
    weights: Option<&[f32]>,
) -> TrainedPartitioner {
    let n = data.rows();
    // A mini-batch needs two points for its batch statistics (as `KnnMatrix::build`
    // needs two for a neighbour).
    assert!(
        n > 1,
        "train_partitioner: need at least two points, got {n}"
    );
    assert_eq!(
        knn.len(),
        n,
        "train_partitioner: k'-NN matrix size mismatch"
    );
    // `KnnMatrix::build` refuses k' = 0, but `from_rows` of empty lists makes one: every
    // target row would be 0/0 and the router would come out uniform.
    assert!(
        knn.k() >= 1,
        "train_partitioner: the k'-NN matrix lists no neighbours"
    );
    if let Some(w) = weights {
        assert_eq!(w.len(), n, "train_partitioner: weight count mismatch");
    }
    let start = std::time::Instant::now();

    let mut model = PartitionModel::new(config, data.cols());
    let mut optimizer = Adam::new(config.learning_rate);
    let mut rng = lrng::seeded(config.seed ^ 0x5eed);
    let batch_size = config.batch_size.clamp(2, n);

    let mut epoch_loss = Vec::with_capacity(config.epochs);
    let mut epoch_quality = Vec::with_capacity(config.epochs);
    let mut epoch_balance = Vec::with_capacity(config.epochs);

    for _epoch in 0..config.epochs {
        let mut order: Vec<usize> = (0..n).collect();
        lrng::shuffle(&mut rng, &mut order);
        let mut sum_total = 0.0f64;
        let mut sum_quality = 0.0f64;
        let mut sum_balance = 0.0f64;
        let mut batches = 0usize;

        for chunk in order.chunks(batch_size) {
            if chunk.len() < 2 {
                continue;
            }
            let value = train_step(
                &mut model,
                &mut optimizer,
                data,
                knn,
                chunk,
                weights,
                config,
            );
            sum_total += value.total as f64;
            sum_quality += value.quality as f64;
            sum_balance += value.balance as f64;
            batches += 1;
        }

        let b = batches.max(1) as f64;
        epoch_loss.push((sum_total / b) as f32);
        epoch_quality.push((sum_quality / b) as f32);
        epoch_balance.push((sum_balance / b) as f32);
    }

    let report = TrainingReport {
        epoch_loss,
        epoch_quality,
        epoch_balance,
        seconds: start.elapsed().as_secs_f64(),
        parameters: model.num_params(),
    };
    TrainedPartitioner { model, report }
}

/// One mini-batch step of Algorithm 1 on the points `batch` (row ids of `data`): the bins
/// the *current* model gives each point's k′ neighbours are the targets (no gradient
/// through them — Eq. 8–9 treat the neighbour distribution as a constant), then a
/// training-mode forward, the loss, backward and one optimizer step.
///
/// The k′-NN lists of a batch overlap, so its `batch.len() · k′` neighbour slots name far
/// fewer distinct points; an inference-mode forward treats rows independently, so each
/// distinct neighbour is forwarded once and its bin copied to every slot that names it.
pub fn train_step(
    model: &mut PartitionModel,
    optimizer: &mut Adam,
    data: &Matrix,
    knn: &KnnMatrix,
    batch: &[usize],
    weights: Option<&[f32]>,
    config: &UspConfig,
) -> LossValue {
    let neighbor_rows: Vec<usize> = batch
        .iter()
        .flat_map(|&i| knn.neighbors_of(i).iter().map(|&j| j as usize))
        .collect();
    let (distinct, slot_of) = distinct_rows(&neighbor_rows, data.rows());
    let distinct_bins = model.assign_batch(&data.select_rows(&distinct));
    let neighbor_bins: Vec<usize> = slot_of.iter().map(|&d| distinct_bins[d]).collect();
    let targets = neighbor_bin_targets(
        &neighbor_bins,
        batch.len(),
        knn.k(),
        config.bins,
        config.soft_targets,
    );
    let batch_weights: Option<Vec<f32>> = weights.map(|w| batch.iter().map(|&i| w[i]).collect());

    let logits = model.network_mut().forward(&data.select_rows(batch));
    let (value, dlogits) =
        unsupervised_loss(&logits, &targets, batch_weights.as_deref(), config.eta);
    model.network_mut().zero_grad();
    model.network_mut().backward(&dlogits);
    optimizer.step(model.network_mut());
    value
}

/// The distinct values of `rows` (each below `n`), ascending, and for every slot of
/// `rows` the position of its value among them: `distinct[slot_of[s]] == rows[s]`.
/// Marks in a table of `n` flags, not a sort: a step names a few thousand of them.
fn distinct_rows(rows: &[usize], n: usize) -> (Vec<usize>, Vec<usize>) {
    let mut named = vec![false; n];
    for &r in rows {
        named[r] = true;
    }
    let distinct: Vec<usize> = (0..n).filter(|&r| named[r]).collect();
    let mut position = vec![0; n];
    for (d, &r) in distinct.iter().enumerate() {
        position[r] = d;
    }
    let slot_of = rows.iter().map(|&r| position[r]).collect();
    (distinct, slot_of)
}

#[cfg(test)]
mod tests {
    use super::*;
    use usp_data::synthetic;
    use usp_index::balance::BalanceStats;
    use usp_index::PartitionIndex;
    use usp_linalg::Distance;

    fn small_dataset() -> (Matrix, KnnMatrix) {
        let ds = synthetic::sift_like(600, 8, 3);
        let knn = KnnMatrix::build(ds.points(), 5, Distance::SquaredEuclidean);
        (ds.points().clone(), knn)
    }

    /// Algorithm 1 with every neighbour slot forwarded — the loop `train_partitioner`
    /// ran before its step forwarded each distinct neighbour once — composed from the
    /// public pieces, the neighbour bins from one whole-matrix forward so that the
    /// blocked `assign_batch` is compared with it, not with itself. The oracle of
    /// [`train_step`].
    fn reference_train(
        data: &Matrix,
        knn: &KnnMatrix,
        config: &UspConfig,
        weights: Option<&[f32]>,
    ) -> (PartitionModel, Vec<f32>) {
        let n = data.rows();
        let mut model = PartitionModel::new(config, data.cols());
        let mut optimizer = Adam::new(config.learning_rate);
        let mut rng = lrng::seeded(config.seed ^ 0x5eed);
        let mut epoch_loss = Vec::new();
        for _ in 0..config.epochs {
            let mut order: Vec<usize> = (0..n).collect();
            lrng::shuffle(&mut rng, &mut order);
            let (mut sum_total, mut batches) = (0.0f64, 0usize);
            for chunk in order.chunks(config.batch_size.clamp(2, n)) {
                if chunk.len() < 2 {
                    continue;
                }
                let neighbor_rows: Vec<usize> = chunk
                    .iter()
                    .flat_map(|&i| knn.neighbors_of(i).iter().map(|&j| j as usize))
                    .collect();
                let neighbor_bins = model
                    .probabilities_batch(&data.select_rows(&neighbor_rows))
                    .row_argmax();
                let targets = neighbor_bin_targets(
                    &neighbor_bins,
                    chunk.len(),
                    knn.k(),
                    config.bins,
                    config.soft_targets,
                );
                let batch_weights: Option<Vec<f32>> =
                    weights.map(|w| chunk.iter().map(|&i| w[i]).collect());
                let logits = model.network_mut().forward(&data.select_rows(chunk));
                let (value, dlogits) =
                    unsupervised_loss(&logits, &targets, batch_weights.as_deref(), config.eta);
                model.network_mut().zero_grad();
                model.network_mut().backward(&dlogits);
                optimizer.step(model.network_mut());
                sum_total += value.total as f64;
                batches += 1;
            }
            epoch_loss.push((sum_total / batches.max(1) as f64) as f32);
        }
        (model, epoch_loss)
    }

    /// The model and the epoch losses of the reference loop bit for bit — MLP and logistic,
    /// with and without ensembling weights, on whatever pool size the suite runs under (CI:
    /// 1 and 4). A differing bit here is a different trained router on every benchmark run.
    #[test]
    fn training_matches_the_every_neighbour_reference_bit_for_bit() {
        let (data, knn) = small_dataset();
        let mut heavy = vec![1.0f32; data.rows()];
        for w in heavy.iter_mut().take(data.rows() / 4) {
            *w = 25.0;
        }
        let bits = |v: &[f32]| v.iter().map(|x| x.to_bits()).collect::<Vec<u32>>();
        let mlp = UspConfig {
            knn_k: 5,
            epochs: 6,
            ..UspConfig::fast(8)
        };
        let logistic = UspConfig {
            knn_k: 5,
            epochs: 6,
            batch_size: 256,
            ..UspConfig::logistic(2)
        };
        for cfg in [&mlp, &logistic] {
            for weights in [None, Some(heavy.as_slice())] {
                for threads in [1, 4] {
                    let case = format!(
                        "{:?}, weights {}, {threads} threads",
                        cfg.model,
                        weights.is_some()
                    );
                    rayon::with_num_threads(threads, || {
                        let trained = train_partitioner(&data, &knn, cfg, weights);
                        let (reference, reference_loss) =
                            reference_train(&data, &knn, cfg, weights);
                        assert_eq!(
                            bits(&trained.report().epoch_loss),
                            bits(&reference_loss),
                            "epoch losses differ: {case}"
                        );
                        assert_eq!(
                            bits(trained.bin_scores_batch(&data).as_slice()),
                            bits(reference.probabilities_batch(&data).as_slice()),
                            "trained models differ: {case}"
                        );
                    });
                }
            }
        }
    }

    /// FNV-1a over the little-endian bytes of `words`.
    fn fnv1a(words: impl IntoIterator<Item = u32>) -> u64 {
        let mut hash = 0xcbf2_9ce4_8422_2325u64;
        for byte in words.into_iter().flat_map(u32::to_le_bytes) {
            hash = (hash ^ u64::from(byte)).wrapping_mul(0x0100_0000_01b3);
        }
        hash
    }

    /// Every parameter bit of a trained router and every bin it assigns, hashed and
    /// compared with a constant recorded before the GEMMs got their AVX2 forms. The
    /// reference test above runs on the same `Matrix` products as the trainer, so a
    /// kernel change that moves both would pass it; this one pins the bits themselves,
    /// on any pool size and in debug and release alike.
    #[test]
    fn a_trained_router_has_the_recorded_bits() {
        let (data, knn) = small_dataset();
        let trained = train_partitioner(&data, &knn, &UspConfig::fast(8), None);
        let mut network = trained.model().network().clone();
        let mut params = Vec::new();
        network.visit_params(&mut |p, _| params.extend(p.iter().map(|x| x.to_bits())));
        let bins = trained.model().assign_batch(&data);
        let hash = fnv1a(params.into_iter().chain(bins.iter().map(|&b| b as u32)));
        assert_eq!(
            hash, 0x6b08_5c8a_0f3a_bb4c,
            "a trained router's bits moved: {hash:#018x}"
        );
    }

    #[test]
    #[should_panic(expected = "train_partitioner: need at least two points, got 1")]
    fn training_refuses_a_one_point_dataset() {
        let data = synthetic::sift_like(1, 4, 1).points().clone();
        let knn = KnnMatrix::from_rows(&[vec![0]]);
        train_partitioner(&data, &knn, &UspConfig::fast(8), None);
    }

    #[test]
    #[should_panic(expected = "lists no neighbours")]
    fn training_refuses_a_k_prime_of_zero() {
        let data = synthetic::sift_like(20, 4, 1).points().clone();
        let knn = KnnMatrix::from_rows(&vec![Vec::new(); 20]);
        train_partitioner(&data, &knn, &UspConfig::fast(8), None);
    }

    #[test]
    fn distinct_rows_maps_every_slot_back_to_its_own_row() {
        let rows = [7usize, 3, 7, 7, 0, 3, 599, 0, 12];
        let (distinct, slot_of) = distinct_rows(&rows, 600);
        assert_eq!(distinct, vec![0, 3, 7, 12, 599]);
        assert_eq!(slot_of.len(), rows.len());
        for (s, &row) in rows.iter().enumerate() {
            assert_eq!(distinct[slot_of[s]], row, "slot {s}");
        }
        assert_eq!(distinct_rows(&[], 600), (vec![], vec![]));
    }

    #[test]
    fn training_reduces_the_loss() {
        let (data, knn) = small_dataset();
        let cfg = UspConfig {
            knn_k: 5,
            ..UspConfig::fast(8)
        };
        let trained = train_partitioner(&data, &knn, &cfg, None);
        let report = trained.report();
        assert_eq!(report.epoch_loss.len(), cfg.epochs);
        let first: f32 = report.epoch_loss[..3].iter().sum::<f32>() / 3.0;
        let last: f32 = report.epoch_loss[report.epoch_loss.len() - 3..]
            .iter()
            .sum::<f32>()
            / 3.0;
        assert!(last < first, "loss did not decrease: {first} -> {last}");
        assert!(report.parameters > 0);
        assert!(report.seconds > 0.0);
    }

    #[test]
    fn batched_bin_scores_match_per_query_bitwise() {
        // The GEMM route-phase override must satisfy the Partitioner batch contract:
        // row i of the batched forward is bit-identical to the single-query forward.
        // This is what keeps the serving engines' batched routing answer-identical to
        // the per-query Searcher path for neural partitions.
        let (data, knn) = small_dataset();
        let cfg = UspConfig {
            knn_k: 5,
            ..UspConfig::fast(8)
        };
        let trained = train_partitioner(&data, &knn, &cfg, None);
        let queries = data.select_rows(&[0, 17, 99, 312, 599]);
        let batch = trained.bin_scores_batch(&queries);
        assert_eq!(batch.shape(), (5, 8));
        for qi in 0..queries.rows() {
            let single = trained.bin_scores(queries.row(qi));
            let batch_bits: Vec<u32> = batch.row(qi).iter().map(|v| v.to_bits()).collect();
            let single_bits: Vec<u32> = single.iter().map(|v| v.to_bits()).collect();
            assert_eq!(batch_bits, single_bits, "row {qi}");
        }
        let ranked = trained.rank_bins_batch(&queries, 3);
        for qi in 0..queries.rows() {
            assert_eq!(
                ranked[qi],
                trained.rank_bins(queries.row(qi), 3),
                "row {qi}"
            );
        }
    }

    #[test]
    fn learned_partition_is_reasonably_balanced() {
        let (data, knn) = small_dataset();
        let cfg = UspConfig {
            knn_k: 5,
            eta: 10.0,
            ..UspConfig::fast(8)
        };
        let trained = train_partitioner(&data, &knn, &cfg, None);
        let assignments = trained.assign_batch(&data);
        let stats = BalanceStats::from_assignments(&assignments, 8);
        assert_eq!(stats.total, 600);
        // The balance term must prevent near-total collapse into a couple of bins.
        assert!(stats.empty_bins <= 2, "too many empty bins: {stats:?}");
        assert!(stats.imbalance < 3.0, "partition too skewed: {stats:?}");
    }

    #[test]
    fn learned_partition_keeps_neighbours_together() {
        let (data, knn) = small_dataset();
        let cfg = UspConfig {
            knn_k: 5,
            ..UspConfig::fast(8)
        };
        let trained = train_partitioner(&data, &knn, &cfg, None);
        let assignments = trained.assign_batch(&data);
        // Fraction of k'-NN pairs co-located in the same bin must beat the random baseline
        // (1/m = 12.5%) by a large margin on clustered data.
        let mut together = 0usize;
        let mut total = 0usize;
        for (i, nbrs) in knn.iter() {
            for &j in nbrs {
                total += 1;
                if assignments[i] == assignments[j as usize] {
                    together += 1;
                }
            }
        }
        let frac = together as f64 / total as f64;
        assert!(frac > 0.5, "only {frac:.2} of neighbour pairs co-located");
    }

    #[test]
    fn partitioner_interface_and_index_build() {
        let (data, knn) = small_dataset();
        let cfg = UspConfig {
            knn_k: 5,
            ..UspConfig::fast(4)
        };
        let trained = train_partitioner(&data, &knn, &cfg, None);
        assert_eq!(trained.num_bins(), 4);
        assert!(trained.num_parameters() > 0);
        assert!(trained.name().contains("usp"));
        let scores = trained.bin_scores(data.row(0));
        assert_eq!(scores.len(), 4);
        let idx = PartitionIndex::build(trained, &data, Distance::SquaredEuclidean);
        let res = idx.search(data.row(0), 5, 1);
        assert!(res.ids.contains(&0));
    }

    /// The index over a trained router is built from its blocked `assign_batch`; its
    /// CSR arrays and rows must be those of the per-row build it replaced
    /// (`from_assignments` over one `assign` a row), bit for bit.
    #[test]
    fn build_over_a_trained_router_is_the_per_row_build() {
        let (data, knn) = small_dataset();
        let trained = train_partitioner(&data, &knn, &UspConfig::fast(8), None);
        let per_row: Vec<usize> = (0..data.rows())
            .map(|i| trained.assign(data.row(i)))
            .collect();
        let twin = || TrainedPartitioner {
            model: trained.model.clone(),
            report: trained.report.clone(),
        };
        let want =
            PartitionIndex::from_assignments(twin(), &data, per_row, Distance::SquaredEuclidean);
        for threads in [1, 4] {
            let got = rayon::with_num_threads(threads, || {
                PartitionIndex::build(twin(), &data, Distance::SquaredEuclidean)
            });
            assert_eq!(got.bin_offsets(), want.bin_offsets(), "{threads} threads");
            assert_eq!(got.local_to_global(), want.local_to_global());
            for b in 0..want.num_bins() {
                let bits = |rows: &[f32]| rows.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
                assert_eq!(bits(got.bin_rows(b)), bits(want.bin_rows(b)), "bin {b}");
            }
        }
    }

    #[test]
    fn ensemble_weights_change_the_learned_partition() {
        let (data, knn) = small_dataset();
        let cfg = UspConfig {
            knn_k: 5,
            epochs: 10,
            ..UspConfig::fast(4)
        };
        let uniform = train_partitioner(&data, &knn, &cfg, None);
        let mut weights = vec![1.0f32; data.rows()];
        for w in weights.iter_mut().take(data.rows() / 4) {
            *w = 25.0;
        }
        let weighted = train_partitioner(&data, &knn, &cfg, Some(&weights));
        let a = uniform.assign_batch(&data);
        let b = weighted.assign_batch(&data);
        assert_ne!(
            a, b,
            "weighting the loss should change the learned partition"
        );
    }

    #[test]
    fn logistic_model_also_trains() {
        let (data, knn) = small_dataset();
        let cfg = UspConfig {
            knn_k: 5,
            epochs: 20,
            batch_size: 256,
            ..UspConfig::logistic(2)
        };
        let trained = train_partitioner(&data, &knn, &cfg, None);
        let assignments = trained.assign_batch(&data);
        let stats = BalanceStats::from_assignments(&assignments, 2);
        assert_eq!(stats.empty_bins, 0);
    }
}
