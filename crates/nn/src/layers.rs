//! Network layers with explicit forward/backward passes.
//!
//! Each layer caches whatever its backward pass needs during `forward`, accumulates
//! parameter gradients during `backward`, and exposes its parameters to the optimizer
//! through [`Layer::visit_params`]. Layers are composed by [`crate::mlp::Sequential`].

use rand::rngs::StdRng;
use rand::Rng;
use usp_linalg::{rng as lrng, Matrix};

use crate::init;

/// A fully-connected layer `y = x W^T + b` with weight shape `(out_features, in_features)`.
#[derive(Debug, Clone)]
pub struct Linear {
    /// Weight matrix, `(out_features, in_features)`.
    pub weight: Matrix,
    /// Bias vector, length `out_features`.
    pub bias: Vec<f32>,
    grad_weight: Matrix,
    grad_bias: Vec<f32>,
    input: Option<Matrix>,
}

impl Linear {
    /// Creates a Glorot-initialised linear layer.
    pub fn new(in_features: usize, out_features: usize, rng: &mut StdRng) -> Self {
        Self {
            weight: init::glorot_uniform(rng, out_features, in_features),
            bias: vec![0.0; out_features],
            grad_weight: Matrix::zeros(out_features, in_features),
            grad_bias: vec![0.0; out_features],
            input: None,
        }
    }

    /// Number of input features.
    pub fn in_features(&self) -> usize {
        self.weight.cols()
    }

    /// Number of output features.
    pub fn out_features(&self) -> usize {
        self.weight.rows()
    }

    fn forward_eval(&self, x: &Matrix) -> Matrix {
        let mut out = x.matmul_transpose_b(&self.weight);
        out.add_row_broadcast(&self.bias);
        out
    }

    fn forward(&mut self, x: &Matrix, train: bool) -> Matrix {
        if train {
            self.input = Some(x.clone());
        }
        self.forward_eval(x)
    }

    /// Accumulates `dW = dout^T x` and `db = column sums of dout`.
    fn accumulate_grads(&mut self, dout: &Matrix) {
        let x = self
            .input
            .as_ref()
            .expect("Linear::backward called without a cached forward pass");
        self.grad_weight.add_assign(&dout.transpose_matmul(x));
        for (gb, s) in self.grad_bias.iter_mut().zip(dout.col_sums()) {
            *gb += s;
        }
    }

    fn backward(&mut self, dout: &Matrix) -> Matrix {
        self.accumulate_grads(dout);
        // dx = dout W
        dout.matmul(&self.weight)
    }
}

/// Rectified linear unit.
#[derive(Debug, Clone, Default)]
pub struct ReLU {
    mask: Option<Vec<bool>>,
}

impl ReLU {
    /// Creates a ReLU activation.
    pub fn new() -> Self {
        Self::default()
    }

    fn forward(&mut self, x: &Matrix, train: bool) -> Matrix {
        if train {
            self.mask = Some(x.as_slice().iter().map(|&v| v > 0.0).collect());
        }
        x.map(|v| v.max(0.0))
    }

    fn backward(&mut self, dout: &Matrix) -> Matrix {
        let mask = self
            .mask
            .as_ref()
            .expect("ReLU::backward called without a cached forward pass");
        let mut dx = dout.clone();
        // A select, not a branch: the mask is a coin flip per element.
        for (g, &m) in dx.as_mut_slice().iter_mut().zip(mask.iter()) {
            *g = if m { *g } else { 0.0 };
        }
        dx
    }
}

/// Batch normalisation over the feature dimension (Ioffe & Szegedy 2015).
#[derive(Debug, Clone)]
pub struct BatchNorm1d {
    /// Learned scale, length `features`.
    pub gamma: Vec<f32>,
    /// Learned shift, length `features`.
    pub beta: Vec<f32>,
    running_mean: Vec<f32>,
    running_var: Vec<f32>,
    momentum: f32,
    eps: f32,
    grad_gamma: Vec<f32>,
    grad_beta: Vec<f32>,
    cache: Option<BnCache>,
}

#[derive(Debug, Clone)]
struct BnCache {
    x_hat: Matrix,
    inv_std: Vec<f32>,
}

impl BatchNorm1d {
    /// Creates a batch-norm layer over `features` features.
    pub fn new(features: usize) -> Self {
        Self {
            gamma: vec![1.0; features],
            beta: vec![0.0; features],
            running_mean: vec![0.0; features],
            running_var: vec![1.0; features],
            momentum: 0.1,
            eps: 1e-5,
            grad_gamma: vec![0.0; features],
            grad_beta: vec![0.0; features],
            cache: None,
        }
    }

    /// Normalises with the running statistics. The per-feature scale is computed once,
    /// not once per element; the per-element expression and its order are unchanged.
    fn forward_eval(&self, x: &Matrix) -> Matrix {
        let inv_std: Vec<f32> = self
            .running_var
            .iter()
            .map(|&v| 1.0 / (v + self.eps).sqrt())
            .collect();
        let (n, f) = x.shape();
        let mut out = Matrix::zeros(n, f);
        for i in 0..n {
            let xr = x.row(i);
            let or = out.row_mut(i);
            for j in 0..f {
                or[j] = self.gamma[j] * (xr[j] - self.running_mean[j]) * inv_std[j] + self.beta[j];
            }
        }
        out
    }

    fn forward(&mut self, x: &Matrix, train: bool) -> Matrix {
        let (n, f) = x.shape();
        if !(train && n > 1) {
            return self.forward_eval(x);
        }
        let mut out = Matrix::zeros(n, f);
        let mean = x.col_means();
        let mut var = vec![0.0f32; f];
        for row in x.row_iter() {
            for (j, (&v, &m)) in row.iter().zip(mean.iter()).enumerate() {
                var[j] += (v - m) * (v - m);
            }
        }
        for v in &mut var {
            *v /= n as f32;
        }
        let inv_std: Vec<f32> = var.iter().map(|&v| 1.0 / (v + self.eps).sqrt()).collect();
        let mut x_hat = Matrix::zeros(n, f);
        for i in 0..n {
            let xr = x.row(i);
            let xh = x_hat.row_mut(i);
            let or = out.row_mut(i);
            for j in 0..f {
                xh[j] = (xr[j] - mean[j]) * inv_std[j];
                or[j] = self.gamma[j] * xh[j] + self.beta[j];
            }
        }
        for j in 0..f {
            self.running_mean[j] =
                (1.0 - self.momentum) * self.running_mean[j] + self.momentum * mean[j];
            self.running_var[j] =
                (1.0 - self.momentum) * self.running_var[j] + self.momentum * var[j];
        }
        self.cache = Some(BnCache { x_hat, inv_std });
        out
    }

    fn backward(&mut self, dout: &Matrix) -> Matrix {
        let cache = self
            .cache
            .as_ref()
            .expect("BatchNorm1d::backward called without a cached training forward pass");
        let (n, f) = dout.shape();
        let n_f = n as f32;
        // Column-wise sums of dout and dout * x_hat.
        let mut sum_dout = vec![0.0f32; f];
        let mut sum_dout_xhat = vec![0.0f32; f];
        for i in 0..n {
            let dr = dout.row(i);
            let xh = cache.x_hat.row(i);
            for j in 0..f {
                sum_dout[j] += dr[j];
                sum_dout_xhat[j] += dr[j] * xh[j];
            }
        }
        for j in 0..f {
            self.grad_beta[j] += sum_dout[j];
            self.grad_gamma[j] += sum_dout_xhat[j];
        }
        let mut dx = Matrix::zeros(n, f);
        for i in 0..n {
            let dr = dout.row(i);
            let xh = cache.x_hat.row(i);
            let dxr = dx.row_mut(i);
            for j in 0..f {
                dxr[j] = self.gamma[j] * cache.inv_std[j] / n_f
                    * (n_f * dr[j] - sum_dout[j] - xh[j] * sum_dout_xhat[j]);
            }
        }
        dx
    }
}

/// Inverted dropout (Srivastava et al. 2014): active only in training mode.
///
/// The layer stores a seed and a call counter instead of a live RNG so that models remain
/// cheaply cloneable; each training forward pass derives a fresh deterministic stream.
#[derive(Debug, Clone)]
pub struct Dropout {
    /// Probability of dropping a unit.
    pub p: f32,
    seed: u64,
    calls: u64,
    mask: Option<Vec<f32>>,
}

impl Dropout {
    /// Creates a dropout layer with drop probability `p`, seeded for reproducibility.
    pub fn new(p: f32, seed: u64) -> Self {
        assert!(
            (0.0..1.0).contains(&p),
            "dropout probability must be in [0, 1)"
        );
        Self {
            p,
            seed,
            calls: 0,
            mask: None,
        }
    }

    fn forward(&mut self, x: &Matrix, train: bool) -> Matrix {
        if !train || self.p == 0.0 {
            self.mask = None;
            return x.clone();
        }
        self.calls = self.calls.wrapping_add(1);
        let mut rng: StdRng =
            lrng::seeded(self.seed ^ self.calls.wrapping_mul(0x9E37_79B9_7F4A_7C15));
        let keep = 1.0 - self.p;
        let mask: Vec<f32> = (0..x.as_slice().len())
            .map(|_| {
                if rng.random::<f32>() < keep {
                    1.0 / keep
                } else {
                    0.0
                }
            })
            .collect();
        let mut out = x.clone();
        for (o, &m) in out.as_mut_slice().iter_mut().zip(mask.iter()) {
            *o *= m;
        }
        self.mask = Some(mask);
        out
    }

    fn backward(&mut self, dout: &Matrix) -> Matrix {
        match &self.mask {
            None => dout.clone(),
            Some(mask) => {
                let mut dx = dout.clone();
                for (g, &m) in dx.as_mut_slice().iter_mut().zip(mask.iter()) {
                    *g *= m;
                }
                dx
            }
        }
    }
}

/// A network layer. Using an enum (rather than trait objects) keeps the hot path
/// monomorphic and the container trivially cloneable.
#[derive(Debug, Clone)]
pub enum Layer {
    /// Fully connected layer.
    Linear(Linear),
    /// ReLU activation.
    ReLU(ReLU),
    /// Batch normalisation.
    BatchNorm(BatchNorm1d),
    /// Dropout regularisation.
    Dropout(Dropout),
}

impl Layer {
    /// Forward pass. `train` enables caching, batch statistics and dropout.
    pub fn forward(&mut self, x: &Matrix, train: bool) -> Matrix {
        match self {
            Layer::Linear(l) => l.forward(x, train),
            Layer::ReLU(l) => l.forward(x, train),
            Layer::BatchNorm(l) => l.forward(x, train),
            Layer::Dropout(l) => l.forward(x, train),
        }
    }

    /// Inference-only forward pass: never caches activations, never updates batch
    /// statistics, dropout is a no-op. Usable through a shared reference, which is what
    /// the query-time partitioners of `usp_index` need.
    pub fn forward_eval(&self, x: &Matrix) -> Matrix {
        match self {
            Layer::Linear(l) => l.forward_eval(x),
            Layer::ReLU(_) => x.map(|v| v.max(0.0)),
            Layer::BatchNorm(l) => l.forward_eval(x),
            Layer::Dropout(_) => x.clone(),
        }
    }

    /// Backward pass: consumes the gradient w.r.t. this layer's output and returns the
    /// gradient w.r.t. its input, accumulating parameter gradients along the way.
    pub fn backward(&mut self, dout: &Matrix) -> Matrix {
        match self {
            Layer::Linear(l) => l.backward(dout),
            Layer::ReLU(l) => l.backward(dout),
            Layer::BatchNorm(l) => l.backward(dout),
            Layer::Dropout(l) => l.backward(dout),
        }
    }

    /// [`Layer::backward`] for a caller that does not want the input gradient: a linear
    /// layer skips the `dout · W` product that computes it.
    pub fn accumulate_grads(&mut self, dout: &Matrix) {
        match self {
            Layer::Linear(l) => l.accumulate_grads(dout),
            _ => drop(self.backward(dout)),
        }
    }

    /// Resets accumulated parameter gradients to zero.
    pub fn zero_grad(&mut self) {
        match self {
            Layer::Linear(l) => {
                l.grad_weight.scale(0.0);
                l.grad_bias.iter_mut().for_each(|g| *g = 0.0);
            }
            Layer::BatchNorm(l) => {
                l.grad_gamma.iter_mut().for_each(|g| *g = 0.0);
                l.grad_beta.iter_mut().for_each(|g| *g = 0.0);
            }
            Layer::ReLU(_) | Layer::Dropout(_) => {}
        }
    }

    /// Visits every `(parameter, gradient)` slice pair, in a deterministic order.
    pub fn visit_params(&mut self, f: &mut dyn FnMut(&mut [f32], &mut [f32])) {
        match self {
            Layer::Linear(l) => {
                f(l.weight.as_mut_slice(), l.grad_weight.as_mut_slice());
                f(&mut l.bias, &mut l.grad_bias);
            }
            Layer::BatchNorm(l) => {
                f(&mut l.gamma, &mut l.grad_gamma);
                f(&mut l.beta, &mut l.grad_beta);
            }
            Layer::ReLU(_) | Layer::Dropout(_) => {}
        }
    }

    /// Number of learnable parameters in the layer.
    pub fn num_params(&self) -> usize {
        match self {
            Layer::Linear(l) => l.weight.as_slice().len() + l.bias.len(),
            Layer::BatchNorm(l) => l.gamma.len() + l.beta.len(),
            Layer::ReLU(_) | Layer::Dropout(_) => 0,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn rng() -> StdRng {
        lrng::seeded(42)
    }

    #[test]
    fn linear_forward_known_values() {
        let mut l = Linear::new(2, 3, &mut rng());
        l.weight = Matrix::from_vec(3, 2, vec![1., 0., 0., 1., 1., 1.]);
        l.bias = vec![0.5, -0.5, 0.0];
        let x = Matrix::from_vec(1, 2, vec![2.0, 3.0]);
        let y = l.forward(&x, false);
        assert_eq!(y.row(0), &[2.5, 2.5, 5.0]);
    }

    #[test]
    fn linear_backward_gradients_match_finite_difference() {
        let mut rng = rng();
        let mut l = Linear::new(3, 2, &mut rng);
        let x = lrng::normal_matrix(&mut rng, 4, 3, 1.0);
        // Loss = sum of outputs; dL/dout = ones.
        let out = l.forward(&x, true);
        let dout = Matrix::full(out.rows(), out.cols(), 1.0);
        let dx = l.backward(&dout);

        // dL/dx should equal the column sums of W for every row.
        let col_sums: Vec<f32> = (0..3)
            .map(|j| (0..2).map(|i| l.weight[(i, j)]).sum())
            .collect();
        for i in 0..4 {
            for j in 0..3 {
                assert!((dx[(i, j)] - col_sums[j]).abs() < 1e-5);
            }
        }
        // dL/db = batch size.
        assert!(l.grad_bias.iter().all(|&g| (g - 4.0).abs() < 1e-5));
        // dL/dW[(o, i)] = sum over batch of x[(b, i)].
        let x_col_sums = x.col_sums();
        for o in 0..2 {
            for i in 0..3 {
                assert!((l.grad_weight[(o, i)] - x_col_sums[i]).abs() < 1e-4);
            }
        }
    }

    #[test]
    fn relu_masks_negative_values() {
        let mut relu = ReLU::new();
        let x = Matrix::from_vec(1, 4, vec![-1.0, 0.0, 2.0, -3.0]);
        let y = relu.forward(&x, true);
        assert_eq!(y.row(0), &[0.0, 0.0, 2.0, 0.0]);
        let dout = Matrix::full(1, 4, 1.0);
        let dx = relu.backward(&dout);
        assert_eq!(dx.row(0), &[0.0, 0.0, 1.0, 0.0]);
    }

    #[test]
    fn batchnorm_normalises_training_batch() {
        let mut bn = BatchNorm1d::new(2);
        let x = Matrix::from_vec(4, 2, vec![1., 10., 2., 20., 3., 30., 4., 40.]);
        let y = bn.forward(&x, true);
        // Each output column must have ~zero mean and ~unit variance.
        let means = y.col_means();
        assert!(means.iter().all(|m| m.abs() < 1e-4));
        let mut var = [0.0f32; 2];
        for row in y.row_iter() {
            for (j, &v) in row.iter().enumerate() {
                var[j] += v * v;
            }
        }
        assert!(var.iter().all(|v| (v / 4.0 - 1.0).abs() < 1e-2));
    }

    #[test]
    fn batchnorm_eval_uses_running_stats() {
        let mut bn = BatchNorm1d::new(1);
        // Alternating 4/6 batch: mean 5, variance 1.
        let x = Matrix::from_vec(8, 1, vec![4.0, 6.0, 4.0, 6.0, 4.0, 6.0, 4.0, 6.0]);
        for _ in 0..50 {
            let _ = bn.forward(&x, true);
        }
        // At eval time a constant input near the running mean maps near beta (=0).
        let y = bn.forward(&Matrix::from_vec(1, 1, vec![5.0]), false);
        assert!(y[(0, 0)].abs() < 0.2, "eval output {}", y[(0, 0)]);
    }

    #[test]
    fn batchnorm_backward_zero_mean_gradient() {
        // For loss = sum(y), dL/dx of batchnorm must be ~0 (shift invariance).
        let mut bn = BatchNorm1d::new(3);
        let x = lrng::normal_matrix(&mut rng(), 16, 3, 2.0);
        let _ = bn.forward(&x, true);
        let dout = Matrix::full(16, 3, 1.0);
        let dx = bn.backward(&dout);
        assert!(dx.as_slice().iter().all(|&g| g.abs() < 1e-3));
        // grad_beta is the column sum of dout.
        assert!(bn.grad_beta.iter().all(|&g| (g - 16.0).abs() < 1e-4));
    }

    #[test]
    fn dropout_eval_is_identity_and_train_scales() {
        let mut d = Dropout::new(0.5, 7);
        let x = Matrix::full(64, 8, 1.0);
        assert_eq!(d.forward(&x, false), x);
        let y = d.forward(&x, true);
        let kept = y.as_slice().iter().filter(|&&v| v > 0.0).count();
        // Roughly half the units survive, each scaled by 2.
        assert!((kept as f32 / 512.0 - 0.5).abs() < 0.1);
        assert!(y
            .as_slice()
            .iter()
            .all(|&v| v == 0.0 || (v - 2.0).abs() < 1e-6));
        // Backward respects the same mask.
        let dx = d.backward(&Matrix::full(64, 8, 1.0));
        for (o, g) in y.as_slice().iter().zip(dx.as_slice()) {
            assert_eq!(*o == 0.0, *g == 0.0);
        }
    }

    #[test]
    fn param_counts() {
        let mut rng = rng();
        let lin = Layer::Linear(Linear::new(10, 4, &mut rng));
        assert_eq!(lin.num_params(), 44);
        let bn = Layer::BatchNorm(BatchNorm1d::new(6));
        assert_eq!(bn.num_params(), 12);
        assert_eq!(Layer::ReLU(ReLU::new()).num_params(), 0);
    }

    #[test]
    fn zero_grad_clears_accumulated_gradients() {
        let mut rng = rng();
        let mut layer = Layer::Linear(Linear::new(3, 2, &mut rng));
        let x = Matrix::full(2, 3, 1.0);
        let _ = layer.forward(&x, true);
        let _ = layer.backward(&Matrix::full(2, 2, 1.0));
        let mut any_nonzero = false;
        layer.visit_params(&mut |_, g| any_nonzero |= g.iter().any(|&v| v != 0.0));
        assert!(any_nonzero);
        layer.zero_grad();
        layer.visit_params(&mut |_, g| assert!(g.iter().all(|&v| v == 0.0)));
    }
}
