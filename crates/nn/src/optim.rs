//! The optimizer.
//!
//! The paper trains every model with Adam (§5.2, citing Kingma & Ba). Adam operates on the
//! `(parameter, gradient)` slice pairs exposed by [`crate::Sequential::visit_params`];
//! per-parameter state is keyed by visit order, which is deterministic.

use crate::mlp::Sequential;

/// The Adam optimizer (Kingma & Ba, 2015).
#[derive(Debug, Clone)]
pub struct Adam {
    /// Learning rate (paper-typical default 1e-3).
    pub lr: f32,
    /// Exponential decay for the first moment.
    pub beta1: f32,
    /// Exponential decay for the second moment.
    pub beta2: f32,
    /// Numerical stabiliser.
    pub eps: f32,
    t: u64,
    m: Vec<Vec<f32>>,
    v: Vec<Vec<f32>>,
}

impl Adam {
    /// Creates an Adam optimizer with the standard betas.
    pub fn new(lr: f32) -> Self {
        Self {
            lr,
            beta1: 0.9,
            beta2: 0.999,
            eps: 1e-8,
            t: 0,
            m: Vec::new(),
            v: Vec::new(),
        }
    }

    /// Updates `model` in place from its accumulated gradients and leaves the gradients
    /// untouched (call [`Sequential::zero_grad`] afterwards).
    pub fn step(&mut self, model: &mut Sequential) {
        self.t += 1;
        let t = self.t as f32;
        let (beta1, beta2, eps, lr) = (self.beta1, self.beta2, self.eps, self.lr);
        let bias1 = 1.0 - beta1.powf(t);
        let bias2 = 1.0 - beta2.powf(t);
        let mut idx = 0usize;
        let m_state = &mut self.m;
        let v_state = &mut self.v;
        model.visit_params(&mut |param, grad| {
            if m_state.len() <= idx {
                m_state.push(vec![0.0; param.len()]);
                v_state.push(vec![0.0; param.len()]);
            }
            let m = &mut m_state[idx];
            let v = &mut v_state[idx];
            for i in 0..param.len() {
                let g = grad[i];
                m[i] = beta1 * m[i] + (1.0 - beta1) * g;
                v[i] = beta2 * v[i] + (1.0 - beta2) * g * g;
                let m_hat = m[i] / bias1;
                let v_hat = v[i] / bias2;
                param[i] -= lr * m_hat / (v_hat.sqrt() + eps);
            }
            idx += 1;
        });
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::loss::weighted_soft_cross_entropy;
    use crate::mlp::{logistic_regression, MlpConfig};
    use usp_linalg::{rng as lrng, Matrix};

    /// Trains a model to map two Gaussian blobs to two classes and returns final accuracy.
    fn train_toy(mut model: Sequential, mut opt: Adam, steps: usize) -> f32 {
        let mut rng = lrng::seeded(9);
        let n = 256;
        let mut x = Matrix::zeros(n, 2);
        let mut t = Matrix::zeros(n, 2);
        for i in 0..n {
            let class = i % 2;
            let offset = if class == 0 { -2.0 } else { 2.0 };
            x.row_mut(i)[0] = offset + lrng::standard_normal(&mut rng) * 0.5;
            x.row_mut(i)[1] = offset + lrng::standard_normal(&mut rng) * 0.5;
            t[(i, class)] = 1.0;
        }
        for _ in 0..steps {
            let logits = model.forward(&x);
            let (_, dlogits) = weighted_soft_cross_entropy(&logits, &t, None);
            model.zero_grad();
            model.backward(&dlogits);
            opt.step(&mut model);
        }
        let probs = model.predict_proba_eval(&x);
        let pred = probs.row_argmax();
        let correct = pred
            .iter()
            .enumerate()
            .filter(|&(i, &p)| t[(i, p)] == 1.0)
            .count();
        correct as f32 / n as f32
    }

    #[test]
    fn adam_learns_separable_problem() {
        let model = logistic_regression(2, 2, 1);
        let acc = train_toy(model, Adam::new(0.05), 150);
        assert!(acc > 0.97, "accuracy {acc}");
    }

    #[test]
    fn adam_trains_mlp_with_batchnorm_and_dropout() {
        let model = MlpConfig::paper_default(2, 2, 3).build();
        let acc = train_toy(model, Adam::new(0.01), 120);
        assert!(acc > 0.95, "accuracy {acc}");
    }

    #[test]
    fn adam_decreases_loss_monotonically_on_average() {
        let mut model = logistic_regression(4, 3, 5);
        let mut opt = Adam::new(0.05);
        let x = lrng::normal_matrix(&mut lrng::seeded(4), 64, 4, 1.0);
        let mut targets = Matrix::zeros(64, 3);
        for i in 0..64 {
            targets[(i, i % 3)] = 1.0;
        }
        let mut first = 0.0;
        let mut last = 0.0;
        for step in 0..60 {
            let logits = model.forward(&x);
            let (loss, dlogits) = weighted_soft_cross_entropy(&logits, &targets, None);
            if step == 0 {
                first = loss;
            }
            last = loss;
            model.zero_grad();
            model.backward(&dlogits);
            opt.step(&mut model);
        }
        assert!(last < first, "loss did not decrease: {first} -> {last}");
    }
}
