//! The partitioning model: a thin wrapper around a `usp-nn` network that maps points to
//! probability distributions over bins (Eq. 6 of the paper).

use rayon::prelude::*;
use usp_linalg::Matrix;
use usp_nn::{logistic_regression, MlpConfig, Sequential};

use crate::config::{ModelKind, UspConfig};

/// Rows per pool task of [`PartitionModel::assign_batch`]: a block's input, its 128-wide
/// hidden layer and its bin scores stay in L1 from the first GEMM to the argmax.
const ASSIGN_BLOCK: usize = 32;

/// A (trained or untrained) partitioning model.
#[derive(Debug, Clone)]
pub struct PartitionModel {
    network: Sequential,
    bins: usize,
}

impl PartitionModel {
    /// Builds an untrained model for the given configuration and input dimensionality.
    pub fn new(config: &UspConfig, input_dim: usize) -> Self {
        let network = match &config.model {
            ModelKind::Mlp { hidden, dropout } => MlpConfig {
                input_dim,
                hidden: hidden.clone(),
                output_dim: config.bins,
                dropout: *dropout,
                batch_norm: true,
                seed: config.seed,
            }
            .build(),
            ModelKind::Logistic => logistic_regression(input_dim, config.bins, config.seed),
        };
        Self {
            network,
            bins: config.bins,
        }
    }

    /// Number of bins `m`.
    pub fn bins(&self) -> usize {
        self.bins
    }

    /// Mutable access to the network (training).
    pub fn network_mut(&mut self) -> &mut Sequential {
        &mut self.network
    }

    /// Shared access to the network.
    pub fn network(&self) -> &Sequential {
        &self.network
    }

    /// Number of learnable parameters (Table 2).
    pub fn num_params(&self) -> usize {
        self.network.num_params()
    }

    /// Bin probability distribution of a single point (inference mode, Eq. 6).
    pub fn probabilities(&self, point: &[f32]) -> Vec<f32> {
        let x = Matrix::from_vec(1, point.len(), point.to_vec());
        self.network.predict_proba_eval(&x).row_to_vec(0)
    }

    /// Bin probability distributions of a batch of points (inference mode).
    pub fn probabilities_batch(&self, points: &Matrix) -> Matrix {
        self.network.predict_proba_eval(points)
    }

    /// Most probable bin per row of `points` (inference mode).
    ///
    /// Blocks of rows go through the whole eval network on their own thread, one pool
    /// region for the batch: both GEMMs, bias, batch norm, ReLU, softmax and argmax run
    /// while the block is in cache. Every eval-mode layer treats rows independently, so
    /// each row's bin is the one [`Self::probabilities_batch`]`(points).row_argmax()`
    /// gives it, bit for bit.
    pub fn assign_batch(&self, points: &Matrix) -> Vec<usize> {
        let (n, dim) = points.shape();
        (0..n.div_ceil(ASSIGN_BLOCK))
            .into_par_iter()
            .flat_map_iter(|b| {
                let rows = b * ASSIGN_BLOCK..n.min((b + 1) * ASSIGN_BLOCK);
                let flat = points.as_slice()[rows.start * dim..rows.end * dim].to_vec();
                let block = Matrix::from_vec(rows.len(), dim, flat);
                self.probabilities_batch(&block).row_argmax()
            })
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::UspConfig;
    use usp_linalg::rng as lrng;

    #[test]
    fn mlp_and_logistic_have_expected_parameter_counts() {
        let mlp = PartitionModel::new(&UspConfig::paper_default(256), 128);
        // 128*128 + 128 + 2*128 (bn) + 128*256 + 256 ≈ 50k — far below Neural LSH's 729k.
        assert_eq!(mlp.num_params(), 128 * 128 + 128 + 256 + 128 * 256 + 256);
        let logistic = PartitionModel::new(&UspConfig::logistic(2), 16);
        assert_eq!(logistic.num_params(), 16 * 2 + 2);
    }

    #[test]
    fn probabilities_are_a_distribution_over_bins() {
        let model = PartitionModel::new(&UspConfig::fast(8), 4);
        let p = model.probabilities(&[0.1, -0.5, 2.0, 0.3]);
        assert_eq!(p.len(), 8);
        assert!((p.iter().sum::<f32>() - 1.0).abs() < 1e-4);
        assert_eq!(model.bins(), 8);
    }

    #[test]
    fn batch_and_single_inference_agree() {
        let model = PartitionModel::new(&UspConfig::fast(5), 3);
        let batch = lrng::normal_matrix(&mut lrng::seeded(1), 6, 3, 1.0);
        let batch_probs = model.probabilities_batch(&batch);
        for i in 0..6 {
            let single = model.probabilities(batch.row(i));
            for (a, b) in single.iter().zip(batch_probs.row(i)) {
                assert!((a - b).abs() < 1e-5);
            }
        }
        assert_eq!(model.assign_batch(&batch).len(), 6);
    }

    /// Block by block on the pool, every row gets the argmax of its own one-row forward —
    /// at sizes below, at and across the block, on one and four threads, with batch-norm
    /// statistics that are not the identity's.
    #[test]
    fn assign_batch_is_the_per_row_argmax_across_block_boundaries() {
        const B: usize = ASSIGN_BLOCK;
        let mut model = PartitionModel::new(&UspConfig::fast(8), 5);
        let warm = lrng::normal_matrix(&mut lrng::seeded(2), 64, 5, 3.0);
        model.network_mut().forward(&warm);
        for n in [0, 1, B - 1, B, B + 1, 3 * B + 5] {
            let points = lrng::normal_matrix(&mut lrng::seeded(n as u64), n, 5, 2.0);
            let want: Vec<usize> = (0..n)
                .map(|i| {
                    let p = model.probabilities(points.row(i));
                    usp_linalg::topk::argmax(&p).unwrap_or(0)
                })
                .collect();
            for threads in [1, 4] {
                let got = rayon::with_num_threads(threads, || model.assign_batch(&points));
                assert_eq!(got, want, "{n} rows, {threads} threads");
            }
        }
    }
}
