//! Softmax, log-sum-exp and summary statistics.
//!
//! The partitioning model's output layer is a softmax over bins (Eq. 6 in the paper);
//! its backward pass, and the numerically stable variants used by the loss, live here.

use crate::matrix::Matrix;

/// Numerically stable softmax of a single row, in place.
pub fn softmax_inplace(row: &mut [f32]) {
    if row.is_empty() {
        return;
    }
    let max = row.iter().cloned().fold(f32::NEG_INFINITY, f32::max);
    let mut sum = 0.0f32;
    for v in row.iter_mut() {
        *v = (*v - max).exp();
        sum += *v;
    }
    if sum > 0.0 {
        for v in row.iter_mut() {
            *v /= sum;
        }
    } else {
        let uniform = 1.0 / row.len() as f32;
        for v in row.iter_mut() {
            *v = uniform;
        }
    }
}

/// Row-wise softmax of a matrix of logits, returning a new matrix of probabilities.
pub fn softmax_rows(logits: &Matrix) -> Matrix {
    let mut out = logits.clone();
    let cols = out.cols();
    for row in out.as_mut_slice().chunks_exact_mut(cols.max(1)) {
        softmax_inplace(row);
    }
    out
}

/// Backward pass of a row-wise softmax.
///
/// Given the softmax output `probs` and the gradient of the loss with respect to the
/// probabilities `dprobs`, returns the gradient with respect to the logits:
/// `dz_i = p_i * (dp_i - sum_j dp_j * p_j)` per row.
pub fn softmax_backward(probs: &Matrix, dprobs: &Matrix) -> Matrix {
    assert_eq!(
        probs.shape(),
        dprobs.shape(),
        "softmax_backward: shape mismatch"
    );
    let mut out = Matrix::zeros(probs.rows(), probs.cols());
    let cols = probs.cols();
    for i in 0..probs.rows() {
        let p = probs.row(i);
        let dp = dprobs.row(i);
        let inner: f32 = p.iter().zip(dp.iter()).map(|(&pi, &di)| pi * di).sum();
        let out_row = out.row_mut(i);
        for j in 0..cols {
            out_row[j] = p[j] * (dp[j] - inner);
        }
    }
    out
}

/// Mean of a slice (0.0 when empty).
pub fn mean(values: &[f32]) -> f32 {
    if values.is_empty() {
        0.0
    } else {
        values.iter().sum::<f32>() / values.len() as f32
    }
}

/// Population variance of a slice (0.0 when empty).
pub fn variance(values: &[f32]) -> f32 {
    if values.is_empty() {
        return 0.0;
    }
    let m = mean(values);
    values.iter().map(|&v| (v - m) * (v - m)).sum::<f32>() / values.len() as f32
}

/// Standard deviation of a slice.
pub fn std_dev(values: &[f32]) -> f32 {
    variance(values).sqrt()
}

/// Cross-entropy between a target distribution and predicted probabilities,
/// `-(sum_j t_j * ln(p_j))`, with clamping for numerical safety.
pub fn cross_entropy(target: &[f32], probs: &[f32]) -> f32 {
    debug_assert_eq!(target.len(), probs.len());
    let mut acc = 0.0f32;
    for (&t, &p) in target.iter().zip(probs.iter()) {
        if t > 0.0 {
            acc -= t * p.max(1e-12).ln();
        }
    }
    acc
}

/// Entropy of a probability distribution in nats.
pub fn entropy(probs: &[f32]) -> f32 {
    probs
        .iter()
        .filter(|&&p| p > 0.0)
        .map(|&p| -p * p.ln())
        .sum()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn assert_close(a: f32, b: f32, tol: f32) {
        assert!((a - b).abs() < tol, "{a} vs {b}");
    }

    #[test]
    fn softmax_sums_to_one_and_preserves_order() {
        let mut row = vec![1.0, 2.0, 3.0];
        softmax_inplace(&mut row);
        assert_close(row.iter().sum::<f32>(), 1.0, 1e-6);
        assert!(row[2] > row[1] && row[1] > row[0]);
    }

    #[test]
    fn softmax_is_shift_invariant() {
        let mut a = vec![1.0, 2.0, 3.0];
        let mut b = vec![1001.0, 1002.0, 1003.0];
        softmax_inplace(&mut a);
        softmax_inplace(&mut b);
        for (x, y) in a.iter().zip(b.iter()) {
            assert_close(*x, *y, 1e-5);
        }
    }

    #[test]
    fn softmax_rows_shape() {
        let logits = Matrix::from_vec(2, 3, vec![0., 0., 0., 1., 2., 3.]);
        let p = softmax_rows(&logits);
        assert_close(p.row(0)[0], 1.0 / 3.0, 1e-6);
        assert_close(p.row(1).iter().sum::<f32>(), 1.0, 1e-6);
    }

    #[test]
    fn softmax_backward_matches_finite_difference() {
        // Check d(sum of squares of probs)/d(logits) via the chain rule against
        // a finite-difference estimate.
        let logits = Matrix::from_vec(1, 4, vec![0.3, -0.2, 0.8, 0.1]);
        let probs = softmax_rows(&logits);
        // loss = sum p_j^2  =>  dL/dp_j = 2 p_j
        let dprobs = probs.map(|p| 2.0 * p);
        let dz = softmax_backward(&probs, &dprobs);

        let loss = |m: &Matrix| -> f32 { softmax_rows(m).as_slice().iter().map(|p| p * p).sum() };
        let eps = 1e-3f32;
        for j in 0..4 {
            let mut plus = logits.clone();
            plus[(0, j)] += eps;
            let mut minus = logits.clone();
            minus[(0, j)] -= eps;
            let fd = (loss(&plus) - loss(&minus)) / (2.0 * eps);
            assert_close(dz[(0, j)], fd, 1e-3);
        }
    }

    #[test]
    fn mean_variance_known_values() {
        let v = [2.0, 4.0, 4.0, 4.0, 5.0, 5.0, 7.0, 9.0];
        assert_close(mean(&v), 5.0, 1e-6);
        assert_close(variance(&v), 4.0, 1e-6);
        assert_close(std_dev(&v), 2.0, 1e-6);
        assert_eq!(mean(&[]), 0.0);
    }

    #[test]
    fn cross_entropy_minimised_at_target() {
        let target = [0.2, 0.8];
        let ce_match = cross_entropy(&target, &target);
        let ce_off = cross_entropy(&target, &[0.8, 0.2]);
        assert!(ce_match < ce_off);
    }

    #[test]
    fn entropy_uniform_is_log_n() {
        assert_close(entropy(&[0.25; 4]), 4.0f32.ln(), 1e-5);
        assert_eq!(entropy(&[1.0, 0.0]), 0.0);
    }
}

#[cfg(test)]
mod proptests {
    use super::*;
    use proptest::prelude::*;

    proptest! {
        #[test]
        fn softmax_always_a_distribution(row in prop::collection::vec(-50f32..50.0, 1..32)) {
            let mut r = row;
            softmax_inplace(&mut r);
            let sum: f32 = r.iter().sum();
            prop_assert!((sum - 1.0).abs() < 1e-4);
            prop_assert!(r.iter().all(|&p| (0.0..=1.0 + 1e-6).contains(&p)));
        }

        #[test]
        fn entropy_bounded_by_log_n(row in prop::collection::vec(-10f32..10.0, 1..32)) {
            let mut r = row;
            softmax_inplace(&mut r);
            let h = entropy(&r);
            prop_assert!(h >= -1e-5);
            prop_assert!(h <= (r.len() as f32).ln() + 1e-4);
        }
    }
}
