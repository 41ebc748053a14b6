//! The partitioning model: a thin wrapper around a `usp-nn` network that maps points to
//! probability distributions over bins (Eq. 6 of the paper).

use usp_linalg::Matrix;
use usp_nn::{logistic_regression, MlpConfig, Sequential};

use crate::config::{ModelKind, UspConfig};

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
    pub fn assign_batch(&self, points: &Matrix) -> Vec<usize> {
        self.probabilities_batch(points).row_argmax()
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
}
