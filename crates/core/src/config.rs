//! Configuration of the unsupervised space partitioner.
//!
//! The tunable parameters correspond to §5.1.4 of the paper: k′ (neighbours in the k′-NN
//! matrix), m (number of bins), e (ensemble size), model complexity, and η (the balance
//! weight in the loss).

/// Which learning model is trained (§5.2 evaluates both).
#[derive(Debug, Clone)]
pub enum ModelKind {
    /// A small MLP: the listed hidden widths, each with batch-norm + ReLU (+ dropout),
    /// then an `m`-way softmax. The paper uses a single hidden layer of 128 units.
    Mlp {
        /// Hidden layer widths.
        hidden: Vec<usize>,
        /// Dropout probability (0.1 in the paper).
        dropout: f32,
    },
    /// Plain logistic regression (used for the binary-tree experiments of §5.4.2).
    Logistic,
}

impl ModelKind {
    /// The paper's default MLP: one hidden layer of 128 units, dropout 0.1.
    pub fn paper_mlp() -> Self {
        ModelKind::Mlp {
            hidden: vec![128],
            dropout: 0.1,
        }
    }
}

/// Full configuration of one unsupervised partitioning model.
#[derive(Debug, Clone)]
pub struct UspConfig {
    /// Number of bins `m`.
    pub bins: usize,
    /// k′ — neighbours per point in the k′-NN matrix (10 in the paper).
    pub knn_k: usize,
    /// η — balance weight in the loss (Table 3 lists the values used per configuration).
    pub eta: f32,
    /// Training epochs (the paper trains the MLP for ≈100 epochs).
    pub epochs: usize,
    /// Mini-batch size; the paper notes ≈4% of the dataset per mini-batch suffices.
    pub batch_size: usize,
    /// Adam learning rate.
    pub learning_rate: f32,
    /// Model architecture.
    pub model: ModelKind,
    /// Use the soft neighbour distribution as the target (the paper's formulation uses the
    /// distribution of neighbours over bins; `false` collapses it to the single majority
    /// bin, an ablation).
    pub soft_targets: bool,
    /// RNG seed.
    pub seed: u64,
}

impl UspConfig {
    /// The paper's default configuration for `bins` bins on a dataset of dimension `d`
    /// (η defaults to 7, the Table 3 value for the 16-bin configurations; override as
    /// needed).
    pub fn paper_default(bins: usize) -> Self {
        Self {
            bins,
            knn_k: 10,
            eta: 7.0,
            epochs: 100,
            batch_size: 1024,
            learning_rate: 1e-3,
            model: ModelKind::paper_mlp(),
            soft_targets: true,
            seed: 42,
        }
    }

    /// A reduced configuration for unit tests and quick experiments: smaller hidden layer,
    /// fewer epochs, more aggressive learning rate.
    pub fn fast(bins: usize) -> Self {
        Self {
            epochs: 30,
            batch_size: 256,
            learning_rate: 5e-3,
            model: ModelKind::Mlp {
                hidden: vec![32],
                dropout: 0.05,
            },
            ..Self::paper_default(bins)
        }
    }

    /// Logistic-regression configuration (for the recursive binary trees of Figure 6).
    pub fn logistic(bins: usize) -> Self {
        Self {
            model: ModelKind::Logistic,
            epochs: 50,
            learning_rate: 5e-3,
            ..Self::paper_default(bins)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn paper_defaults_match_paper_values() {
        let cfg = UspConfig::paper_default(256);
        assert_eq!(cfg.bins, 256);
        assert_eq!(cfg.knn_k, 10);
        assert_eq!(cfg.epochs, 100);
        assert!(cfg.soft_targets);
        match cfg.model {
            ModelKind::Mlp {
                ref hidden,
                dropout,
            } => {
                assert_eq!(hidden, &vec![128]);
                assert!((dropout - 0.1).abs() < 1e-6);
            }
            _ => panic!("expected the paper MLP"),
        }
    }

    #[test]
    fn builders_override_fields() {
        let log = UspConfig::logistic(2);
        assert!(matches!(log.model, ModelKind::Logistic));
    }
}
