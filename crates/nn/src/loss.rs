//! Differentiable loss functions over logits.
//!
//! The quality-cost term of the paper's unsupervised loss (Eq. 10) is a cross-entropy
//! between the model's softmax output for a point and the *soft* distribution of its k′
//! nearest neighbours over bins, optionally weighted per example for the ensembling
//! scheme (Eq. 14). The functions here return both the scalar loss and the gradient with
//! respect to the logits, so callers never differentiate by hand.

use usp_linalg::{stats, Matrix};

/// Softmax cross-entropy against soft target distributions, averaged over the batch.
///
/// * `logits` — `(batch, classes)` raw model outputs;
/// * `targets` — `(batch, classes)` rows summing to 1 (soft labels);
/// * `weights` — optional per-example weights (the `w_i` of Eq. 14); `None` means 1.0.
///
/// Returns `(mean loss, d loss / d logits)`. The gradient of softmax+CE w.r.t. the logits
/// is the familiar `softmax(logits) - target`, scaled by `weight / batch`.
pub fn weighted_soft_cross_entropy(
    logits: &Matrix,
    targets: &Matrix,
    weights: Option<&[f32]>,
) -> (f32, Matrix) {
    soft_cross_entropy_of_probs(&stats::softmax_rows(logits), targets, weights)
}

/// [`weighted_soft_cross_entropy`] from `probs = softmax_rows(logits)`, for a caller that
/// needs the probabilities for another term as well: the softmax is computed once.
pub fn soft_cross_entropy_of_probs(
    probs: &Matrix,
    targets: &Matrix,
    weights: Option<&[f32]>,
) -> (f32, Matrix) {
    assert_eq!(
        probs.shape(),
        targets.shape(),
        "loss: logits/targets shape mismatch"
    );
    let n = probs.rows();
    if let Some(w) = weights {
        assert_eq!(w.len(), n, "loss: weight length mismatch");
    }
    let mut grad = Matrix::zeros(probs.rows(), probs.cols());
    let mut total = 0.0f64;
    let mut total_weight = 0.0f64;
    for i in 0..n {
        let w = weights.map(|w| w[i]).unwrap_or(1.0);
        total_weight += w as f64;
        let p = probs.row(i);
        let t = targets.row(i);
        total += (w * stats::cross_entropy(t, p)) as f64;
        for ((g, &pj), &tj) in grad.row_mut(i).iter_mut().zip(p).zip(t) {
            *g = w * (pj - tj);
        }
    }
    let norm = if total_weight > 0.0 {
        total_weight
    } else {
        1.0
    };
    grad.scale(1.0 / norm as f32);
    ((total / norm) as f32, grad)
}

/// Softmax cross-entropy against hard integer labels (used by the supervised Neural LSH
/// baseline, which trains a classifier on graph-partition labels).
pub fn cross_entropy_with_labels(logits: &Matrix, labels: &[usize]) -> (f32, Matrix) {
    assert_eq!(logits.rows(), labels.len(), "loss: label count mismatch");
    let mut targets = Matrix::zeros(logits.rows(), logits.cols());
    for (i, &l) in labels.iter().enumerate() {
        assert!(
            l < logits.cols(),
            "label {l} out of range for {} classes",
            logits.cols()
        );
        targets[(i, l)] = 1.0;
    }
    weighted_soft_cross_entropy(logits, &targets, None)
}

/// Classification accuracy of logits against hard labels.
pub fn accuracy(logits: &Matrix, labels: &[usize]) -> f32 {
    if labels.is_empty() {
        return 0.0;
    }
    let pred = logits.row_argmax();
    let correct = pred.iter().zip(labels).filter(|(p, l)| p == l).count();
    correct as f32 / labels.len() as f32
}

#[cfg(test)]
mod tests {
    use super::*;
    use usp_linalg::rng as lrng;

    fn finite_difference_check(logits: Matrix, targets: Matrix, weights: Option<Vec<f32>>) {
        let w = weights.as_deref();
        let (_, grad) = weighted_soft_cross_entropy(&logits, &targets, w);
        let eps = 1e-3f32;
        for i in 0..logits.rows() {
            for j in 0..logits.cols() {
                let mut plus = logits.clone();
                plus[(i, j)] += eps;
                let mut minus = logits.clone();
                minus[(i, j)] -= eps;
                let (lp, _) = weighted_soft_cross_entropy(&plus, &targets, w);
                let (lm, _) = weighted_soft_cross_entropy(&minus, &targets, w);
                let fd = (lp - lm) / (2.0 * eps);
                assert!(
                    (grad[(i, j)] - fd).abs() < 2e-3,
                    "gradient mismatch at ({i},{j}): analytic {} vs fd {}",
                    grad[(i, j)],
                    fd
                );
            }
        }
    }

    #[test]
    fn soft_ce_gradient_matches_finite_difference() {
        let mut rng = lrng::seeded(3);
        let logits = lrng::normal_matrix(&mut rng, 3, 4, 1.0);
        // Soft targets: normalised random positives.
        let mut targets = lrng::normal_matrix(&mut rng, 3, 4, 1.0).map(|v| v.abs() + 0.1);
        for i in 0..3 {
            let s: f32 = targets.row(i).iter().sum();
            for v in targets.row_mut(i) {
                *v /= s;
            }
        }
        finite_difference_check(logits, targets, None);
    }

    #[test]
    fn weighted_soft_ce_gradient_matches_finite_difference() {
        let mut rng = lrng::seeded(5);
        let logits = lrng::normal_matrix(&mut rng, 4, 3, 1.0);
        let mut targets = Matrix::zeros(4, 3);
        for i in 0..4 {
            targets[(i, i % 3)] = 1.0;
        }
        finite_difference_check(logits, targets, Some(vec![0.5, 2.0, 1.0, 3.0]));
    }

    #[test]
    fn perfect_prediction_has_near_zero_gradient() {
        // Very confident correct logits => tiny loss and gradient.
        let logits = Matrix::from_vec(1, 3, vec![20.0, -20.0, -20.0]);
        let targets = Matrix::from_vec(1, 3, vec![1.0, 0.0, 0.0]);
        let (loss, grad) = weighted_soft_cross_entropy(&logits, &targets, None);
        assert!(loss < 1e-6);
        assert!(grad.as_slice().iter().all(|&g| g.abs() < 1e-6));
    }

    #[test]
    fn zero_weight_examples_do_not_contribute() {
        let logits = Matrix::from_vec(2, 2, vec![5.0, -5.0, -5.0, 5.0]);
        let targets = Matrix::from_vec(2, 2, vec![0.0, 1.0, 1.0, 0.0]); // both wrong
        let (loss_full, _) = weighted_soft_cross_entropy(&logits, &targets, Some(&[1.0, 1.0]));
        let (loss_half, grad_half) =
            weighted_soft_cross_entropy(&logits, &targets, Some(&[1.0, 0.0]));
        assert!((loss_full - loss_half).abs() < 1e-5); // both examples have identical loss values
        assert!(grad_half.row(1).iter().all(|&g| g == 0.0));
    }

    #[test]
    fn hard_label_ce_matches_soft_one_hot() {
        let logits = Matrix::from_vec(2, 3, vec![0.1, 0.5, -0.2, 1.0, -1.0, 0.0]);
        let (l1, g1) = cross_entropy_with_labels(&logits, &[1, 0]);
        let targets = Matrix::from_vec(2, 3, vec![0., 1., 0., 1., 0., 0.]);
        let (l2, g2) = weighted_soft_cross_entropy(&logits, &targets, None);
        assert!((l1 - l2).abs() < 1e-6);
        assert_eq!(g1, g2);
    }

    #[test]
    fn accuracy_counts_argmax_matches() {
        let logits = Matrix::from_vec(3, 2, vec![2.0, 1.0, 0.0, 3.0, 5.0, 4.0]);
        assert!((accuracy(&logits, &[0, 1, 0]) - 1.0).abs() < 1e-6);
        assert!((accuracy(&logits, &[1, 1, 0]) - 2.0 / 3.0).abs() < 1e-6);
        assert_eq!(accuracy(&logits, &[]), 0.0);
    }
}

#[cfg(test)]
mod proptests {
    use super::*;
    use proptest::prelude::*;
    use usp_linalg::rng as lrng;

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(32))]
        #[test]
        fn loss_is_nonnegative_and_finite(seed in 0u64..500, n in 1usize..6, c in 2usize..6) {
            let mut rng = lrng::seeded(seed);
            let logits = lrng::normal_matrix(&mut rng, n, c, 2.0);
            let mut targets = lrng::normal_matrix(&mut rng, n, c, 1.0).map(|v| v.abs() + 1e-3);
            for i in 0..n {
                let s: f32 = targets.row(i).iter().sum();
                for v in targets.row_mut(i) { *v /= s; }
            }
            let (loss, grad) = weighted_soft_cross_entropy(&logits, &targets, None);
            prop_assert!(loss.is_finite());
            prop_assert!(loss >= -1e-5);
            prop_assert!(grad.as_slice().iter().all(|g| g.is_finite()));
            // Gradient rows sum to ~0 because both softmax and targets sum to 1.
            for i in 0..n {
                let s: f32 = grad.row(i).iter().sum();
                prop_assert!(s.abs() < 1e-4);
            }
        }
    }
}
