//! Sequential model container and the paper's two architectures.
//!
//! §5.2 of the paper evaluates (i) a small MLP — input layer, one hidden layer of 128
//! units, each fully-connected layer followed by batch normalisation and ReLU, dropout
//! 0.1, and an `m`-way softmax output — and (ii) a plain logistic-regression model used
//! for the binary tree experiments. Both are expressed here as a [`Sequential`] stack of
//! [`Layer`]s ending in raw logits (the softmax lives in the loss, which keeps gradients
//! simple and numerically stable).

use rand::rngs::StdRng;
use usp_linalg::{rng as lrng, stats, Matrix};

use crate::layers::{BatchNorm1d, Dropout, Layer, Linear, ReLU};

/// A stack of layers applied in order. Outputs raw logits.
#[derive(Debug, Clone)]
pub struct Sequential {
    layers: Vec<Layer>,
}

impl Sequential {
    /// Builds a model from an explicit layer stack.
    pub fn new(layers: Vec<Layer>) -> Self {
        Self { layers }
    }

    /// Immutable access to the layer stack.
    pub fn layers(&self) -> &[Layer] {
        &self.layers
    }

    /// Training forward pass producing logits: dropout, batch statistics and the
    /// activation caches needed by [`Sequential::backward`].
    pub fn forward(&mut self, x: &Matrix) -> Matrix {
        let Some((first, rest)) = self.layers.split_first_mut() else {
            return x.clone();
        };
        let h = first.forward(x);
        rest.iter_mut().fold(h, |h, layer| layer.forward(&h))
    }

    /// Inference forward pass through a shared reference: no caching, no batch-stat
    /// updates, dropout disabled — usable from the query path of an index, which only
    /// holds `&self`.
    pub fn forward_eval(&self, x: &Matrix) -> Matrix {
        let Some((first, rest)) = self.layers.split_first() else {
            return x.clone();
        };
        let h = first.forward_eval(x);
        rest.iter().fold(h, |h, layer| layer.forward_eval(&h))
    }

    /// Softmax probabilities through a shared reference (see [`Sequential::forward_eval`]).
    pub fn predict_proba_eval(&self, x: &Matrix) -> Matrix {
        stats::softmax_rows(&self.forward_eval(x))
    }

    /// Backward pass from the gradient w.r.t. the logits: accumulates every layer's
    /// parameter gradients. The gradient w.r.t. the network input has no reader, so the
    /// first layer does not compute it.
    pub fn backward(&mut self, dlogits: &Matrix) {
        let Some((first, rest)) = self.layers.split_first_mut() else {
            return;
        };
        let mut grad: Option<Matrix> = None;
        for layer in rest.iter_mut().rev() {
            grad = Some(layer.backward(grad.as_ref().unwrap_or(dlogits)));
        }
        first.accumulate_grads(grad.as_ref().unwrap_or(dlogits));
    }

    /// Zeroes all accumulated parameter gradients.
    pub fn zero_grad(&mut self) {
        for layer in &mut self.layers {
            layer.zero_grad();
        }
    }

    /// Visits every `(parameter, gradient)` pair in a deterministic order.
    pub fn visit_params(&mut self, f: &mut dyn FnMut(&mut [f32], &mut [f32])) {
        for layer in &mut self.layers {
            layer.visit_params(f);
        }
    }

    /// Total number of learnable parameters (Table 2 of the paper reports these counts).
    pub fn num_params(&self) -> usize {
        self.layers.iter().map(Layer::num_params).sum()
    }

    /// Output dimensionality (the number of bins `m` for partitioning models).
    pub fn output_dim(&self) -> usize {
        self.layers
            .iter()
            .rev()
            .find_map(|l| match l {
                Layer::Linear(lin) => Some(lin.out_features()),
                _ => None,
            })
            .unwrap_or(0)
    }

    /// Input dimensionality expected by the first linear layer.
    pub fn input_dim(&self) -> usize {
        self.layers
            .iter()
            .find_map(|l| match l {
                Layer::Linear(lin) => Some(lin.in_features()),
                _ => None,
            })
            .unwrap_or(0)
    }
}

/// Configuration of the paper's MLP architecture.
#[derive(Debug, Clone)]
pub struct MlpConfig {
    /// Input dimensionality `d`.
    pub input_dim: usize,
    /// Hidden layer widths; the paper uses a single hidden layer of 128.
    pub hidden: Vec<usize>,
    /// Output dimensionality (number of bins `m`).
    pub output_dim: usize,
    /// Dropout probability (0.1 in the paper); `0.0` disables dropout.
    pub dropout: f32,
    /// Whether to insert batch normalisation after every hidden linear layer.
    pub batch_norm: bool,
    /// RNG seed for weight initialisation and dropout masks.
    pub seed: u64,
}

impl MlpConfig {
    /// The architecture used throughout §5.4.1: one hidden layer of 128 units with batch
    /// norm, ReLU and dropout 0.1.
    pub fn paper_default(input_dim: usize, output_dim: usize, seed: u64) -> Self {
        Self {
            input_dim,
            hidden: vec![128],
            output_dim,
            dropout: 0.1,
            batch_norm: true,
            seed,
        }
    }

    /// Builds the [`Sequential`] model.
    pub fn build(&self) -> Sequential {
        let mut rng: StdRng = lrng::seeded(self.seed);
        let mut layers = Vec::new();
        let mut prev = self.input_dim;
        for (i, &h) in self.hidden.iter().enumerate() {
            layers.push(Layer::Linear(Linear::new(prev, h, &mut rng)));
            if self.batch_norm {
                layers.push(Layer::BatchNorm(BatchNorm1d::new(h)));
            }
            layers.push(Layer::ReLU(ReLU::new()));
            if self.dropout > 0.0 {
                layers.push(Layer::Dropout(Dropout::new(
                    self.dropout,
                    self.seed ^ (i as u64 + 1),
                )));
            }
            prev = h;
        }
        layers.push(Layer::Linear(Linear::new(prev, self.output_dim, &mut rng)));
        Sequential::new(layers)
    }
}

/// A logistic-regression model: a single linear layer producing `output_dim` logits.
///
/// With `output_dim = 2` this is the learner used for the recursive binary partition trees
/// of §5.4.2.
pub fn logistic_regression(input_dim: usize, output_dim: usize, seed: u64) -> Sequential {
    let mut rng = lrng::seeded(seed);
    Sequential::new(vec![Layer::Linear(Linear::new(
        input_dim, output_dim, &mut rng,
    ))])
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn paper_default_structure_and_param_count() {
        let cfg = MlpConfig::paper_default(128, 256, 1);
        let model = cfg.build();
        // 128*128 + 128 (hidden) + 2*128 (bn) + 128*256 + 256 (output)
        let expected = 128 * 128 + 128 + 256 + 128 * 256 + 256;
        assert_eq!(model.num_params(), expected);
        assert_eq!(model.input_dim(), 128);
        assert_eq!(model.output_dim(), 256);
    }

    #[test]
    fn logistic_regression_param_count() {
        let m = logistic_regression(16, 2, 3);
        assert_eq!(m.num_params(), 16 * 2 + 2);
        assert_eq!(m.output_dim(), 2);
    }

    #[test]
    fn predict_proba_rows_sum_to_one() {
        let model = MlpConfig::paper_default(8, 4, 5).build();
        let x = lrng::normal_matrix(&mut lrng::seeded(1), 10, 8, 1.0);
        let p = model.predict_proba_eval(&x);
        assert_eq!(p.shape(), (10, 4));
        for row in p.row_iter() {
            let s: f32 = row.iter().sum();
            assert!((s - 1.0).abs() < 1e-4);
        }
    }

    #[test]
    fn forward_eval_is_deterministic() {
        let model = MlpConfig::paper_default(8, 4, 5).build();
        let x = lrng::normal_matrix(&mut lrng::seeded(2), 6, 8, 1.0);
        let a = model.forward_eval(&x);
        let b = model.forward_eval(&x);
        assert_eq!(a, b);
    }

    #[test]
    fn backward_accumulates_the_layer_chain_gradients() {
        // `Sequential::backward` skips the first layer's input gradient; every parameter
        // gradient must still be the one the full layer-by-layer chain accumulates.
        let mut model = MlpConfig::paper_default(8, 4, 7).build();
        let x = lrng::normal_matrix(&mut lrng::seeded(3), 6, 8, 1.0);
        let logits = model.forward(&x);
        let dlogits = lrng::normal_matrix(&mut lrng::seeded(4), logits.rows(), logits.cols(), 1.0);

        let mut chain = model.layers.clone();
        let mut grad = dlogits.clone();
        for layer in chain.iter_mut().rev() {
            grad = layer.backward(&grad);
        }
        assert_eq!(grad.shape(), x.shape());
        let mut want: Vec<Vec<f32>> = Vec::new();
        for layer in &mut chain {
            layer.visit_params(&mut |_, g| want.push(g.to_vec()));
        }

        model.backward(&dlogits);
        let mut got: Vec<Vec<f32>> = Vec::new();
        model.visit_params(&mut |_, g| got.push(g.to_vec()));
        assert_eq!(want, got);
        assert!(got.iter().flatten().any(|&g| g != 0.0));
    }

    #[test]
    fn no_hidden_layers_degenerates_to_linear() {
        let cfg = MlpConfig {
            input_dim: 5,
            hidden: vec![],
            output_dim: 3,
            dropout: 0.0,
            batch_norm: false,
            seed: 1,
        };
        let m = cfg.build();
        assert_eq!(m.num_params(), 5 * 3 + 3);
        assert_eq!(m.layers().len(), 1);
    }
}
