//! The unsupervised multi-objective loss (§4.2.2).
//!
//! For a mini-batch of `B` points with model logits `Z` (softmax `P = softmax(Z)`):
//!
//! * **Quality cost** `U(R)`: for each point `i`, the target distribution `t_i` is the
//!   fraction of its k′ nearest neighbours assigned (by the current model, hard argmax,
//!   treated as a constant) to each bin; the cost is the weighted cross-entropy between
//!   `t_i` and `p_i` averaged over the batch (Eq. 10, with the ensembling weights of
//!   Eq. 14).
//! * **Computational (balance) cost** `S(R)`: select the top ⌈B/m⌉ probabilities of every
//!   bin column of `P` (the "window" of Eq. 12) and negate their mean (Eq. 13 normalised
//!   by the batch size, so that the η values quoted in Table 3 are meaningful at any batch
//!   size).
//!
//! The total loss is `U + η·S`; [`unsupervised_loss`] returns its value, the two terms and
//! the gradient with respect to the logits, obtained analytically (softmax + cross-entropy
//! for the quality term, a masked softmax backward for the balance term).

use usp_linalg::{stats, topk, Matrix};
use usp_nn::loss::soft_cross_entropy_of_probs;

/// Breakdown of one loss evaluation.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct LossValue {
    /// Total loss `quality + eta * balance`.
    pub total: f32,
    /// Quality (cross-entropy) term.
    pub quality: f32,
    /// Balance term (negated mean of the window; more negative = more balanced).
    pub balance: f32,
}

/// Builds the per-point target distributions `B_k'(p_i)` (Eq. 9) from the model's bin
/// assignments of each point's k′ nearest neighbours.
///
/// * `neighbor_bins` — flat row-major `(batch, k')` bin indices of the neighbours;
/// * `bins` — number of bins `m`;
/// * `soft` — when `true` the full distribution is used (the paper's formulation); when
///   `false` the distribution collapses to the majority bin (an ablation).
pub fn neighbor_bin_targets(
    neighbor_bins: &[usize],
    batch: usize,
    knn_k: usize,
    bins: usize,
    soft: bool,
) -> Matrix {
    assert_eq!(
        neighbor_bins.len(),
        batch * knn_k,
        "neighbor_bin_targets: shape mismatch"
    );
    let mut targets = Matrix::zeros(batch, bins);
    for i in 0..batch {
        let row = targets.row_mut(i);
        for &b in &neighbor_bins[i * knn_k..(i + 1) * knn_k] {
            debug_assert!(b < bins);
            row[b] += 1.0;
        }
        if soft {
            for v in row.iter_mut() {
                *v /= knn_k as f32;
            }
        } else {
            let best = topk::argmax(row).expect("neighbor_bin_targets: bins must be > 0");
            for (j, v) in row.iter_mut().enumerate() {
                *v = if j == best { 1.0 } else { 0.0 };
            }
        }
    }
    targets
}

/// The balance ("computational cost") term and its gradient with respect to the softmax
/// probabilities.
///
/// Returns `(S, dS/dP)` where `S = -(1/B) Σ_window P` and the window holds, for each bin
/// column, its ⌈B/m⌉ largest probabilities (Eq. 12–13, normalised by the batch size).
pub fn balance_cost(probs: &Matrix) -> (f32, Matrix) {
    let (batch, bins) = probs.shape();
    let window = (batch + bins - 1) / bins.max(1); // ceil(B / m)
    let selected = topk::top_k_per_column(probs.as_slice(), batch, bins, window);
    let norm = 1.0 / batch.max(1) as f32;
    let mut grad = Matrix::zeros(batch, bins);
    let mut total = 0.0f32;
    for &flat in &selected {
        total += probs.as_slice()[flat];
        grad.as_mut_slice()[flat] = -norm;
    }
    (-total * norm, grad)
}

/// Evaluates the full unsupervised loss and its gradient with respect to the logits.
///
/// * `logits` — `(batch, bins)` raw model outputs for the batch points;
/// * `targets` — `(batch, bins)` neighbour-bin distributions (from
///   [`neighbor_bin_targets`]); treated as constants (no gradient flows into them);
/// * `weights` — optional per-point ensembling weights `w_i` (Eq. 14);
/// * `eta` — the balance weight η.
pub fn unsupervised_loss(
    logits: &Matrix,
    targets: &Matrix,
    weights: Option<&[f32]>,
    eta: f32,
) -> (LossValue, Matrix) {
    assert_eq!(
        logits.shape(),
        targets.shape(),
        "unsupervised_loss: shape mismatch"
    );
    // One softmax for both terms.
    let probs = stats::softmax_rows(logits);
    // Quality term: weighted soft cross-entropy; gradient w.r.t. logits is w_i (p_i - t_i).
    let (quality, mut dlogits) = soft_cross_entropy_of_probs(&probs, targets, weights);

    // Balance term: push its gradient through the softmax.
    let (balance, dprobs) = balance_cost(&probs);
    let dbalance_logits = stats::softmax_backward(&probs, &dprobs);
    dlogits.axpy(eta, &dbalance_logits);

    (
        LossValue {
            total: quality + eta * balance,
            quality,
            balance,
        },
        dlogits,
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use usp_linalg::rng as lrng;

    #[test]
    fn targets_are_neighbor_bin_fractions() {
        // 2 points, k'=4, m=3. Point 0's neighbours: bins 0,0,1,2. Point 1's: 2,2,2,2.
        let nb = vec![0, 0, 1, 2, 2, 2, 2, 2];
        let t = neighbor_bin_targets(&nb, 2, 4, 3, true);
        assert_eq!(t.row(0), &[0.5, 0.25, 0.25]);
        assert_eq!(t.row(1), &[0.0, 0.0, 1.0]);
        // Hard targets collapse to the majority bin.
        let h = neighbor_bin_targets(&nb, 2, 4, 3, false);
        assert_eq!(h.row(0), &[1.0, 0.0, 0.0]);
        assert_eq!(h.row(1), &[0.0, 0.0, 1.0]);
    }

    #[test]
    fn balance_cost_prefers_balanced_assignments() {
        // 4 points, 2 bins. Balanced: two confident points per bin.
        let balanced = Matrix::from_vec(4, 2, vec![0.9, 0.1, 0.9, 0.1, 0.1, 0.9, 0.1, 0.9]);
        // Skewed: all four points want bin 0.
        let skewed = Matrix::from_vec(4, 2, vec![0.9, 0.1, 0.9, 0.1, 0.9, 0.1, 0.9, 0.1]);
        let (s_bal, _) = balance_cost(&balanced);
        let (s_skew, _) = balance_cost(&skewed);
        assert!(
            s_bal < s_skew,
            "balanced {s_bal} should score lower (better) than skewed {s_skew}"
        );
    }

    #[test]
    fn balance_gradient_is_nonzero_only_on_window_entries() {
        let probs = Matrix::from_vec(4, 2, vec![0.9, 0.1, 0.8, 0.2, 0.3, 0.7, 0.2, 0.8]);
        let (_, grad) = balance_cost(&probs);
        // window = ceil(4/2) = 2 entries per column -> 4 nonzeros of value -1/4.
        let nonzero: Vec<f32> = grad
            .as_slice()
            .iter()
            .copied()
            .filter(|&g| g != 0.0)
            .collect();
        assert_eq!(nonzero.len(), 4);
        assert!(nonzero.iter().all(|&g| (g + 0.25).abs() < 1e-6));
    }

    #[test]
    fn loss_gradient_matches_finite_difference() {
        let mut rng = lrng::seeded(3);
        let logits = lrng::normal_matrix(&mut rng, 6, 4, 0.7);
        let nb: Vec<usize> = (0..6 * 3).map(|i| i % 4).collect();
        let targets = neighbor_bin_targets(&nb, 6, 3, 4, true);
        let weights = vec![1.0, 2.0, 0.5, 1.0, 1.5, 1.0];
        let eta = 5.0;
        let (_, grad) = unsupervised_loss(&logits, &targets, Some(&weights), eta);

        let eval = |l: &Matrix| unsupervised_loss(l, &targets, Some(&weights), eta).0.total;
        let eps = 1e-3f32;
        let mut max_err = 0.0f32;
        for i in 0..6 {
            for j in 0..4 {
                let mut plus = logits.clone();
                plus[(i, j)] += eps;
                let mut minus = logits.clone();
                minus[(i, j)] -= eps;
                let fd = (eval(&plus) - eval(&minus)) / (2.0 * eps);
                max_err = max_err.max((fd - grad[(i, j)]).abs());
            }
        }
        // The balance term's window membership can flip under perturbation, so allow a
        // slightly looser tolerance than a pure cross-entropy check.
        assert!(max_err < 5e-2, "max finite-difference error {max_err}");
    }

    #[test]
    fn eta_zero_reduces_to_weighted_cross_entropy() {
        let logits = Matrix::from_vec(2, 3, vec![0.2, -0.1, 0.5, 1.0, 0.0, -1.0]);
        let nb = vec![0, 1, 2, 2, 2, 1];
        let targets = neighbor_bin_targets(&nb, 2, 3, 3, true);
        let (value, grad) = unsupervised_loss(&logits, &targets, None, 0.0);
        let (ce, ce_grad) = usp_nn::loss::weighted_soft_cross_entropy(&logits, &targets, None);
        assert!((value.total - ce).abs() < 1e-5);
        assert!((value.quality - ce).abs() < 1e-5);
        for (a, b) in grad.as_slice().iter().zip(ce_grad.as_slice()) {
            assert!((a - b).abs() < 1e-5);
        }
    }

    #[test]
    fn higher_weight_points_dominate_the_gradient() {
        let logits = Matrix::from_vec(2, 2, vec![0.0, 0.0, 0.0, 0.0]);
        let targets = Matrix::from_vec(2, 2, vec![1.0, 0.0, 0.0, 1.0]);
        let (_, g_uniform) = unsupervised_loss(&logits, &targets, Some(&[1.0, 1.0]), 0.0);
        let (_, g_weighted) = unsupervised_loss(&logits, &targets, Some(&[10.0, 1.0]), 0.0);
        // Under heavy weight on point 0, its share of the (normalised) gradient grows.
        let share_uniform =
            g_uniform.row(0)[0].abs() / (g_uniform.row(0)[0].abs() + g_uniform.row(1)[0].abs());
        let share_weighted =
            g_weighted.row(0)[0].abs() / (g_weighted.row(0)[0].abs() + g_weighted.row(1)[0].abs());
        assert!(share_weighted > share_uniform);
    }
}

#[cfg(test)]
mod proptests {
    use super::*;
    use proptest::prelude::*;
    use usp_linalg::rng as lrng;

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(24))]
        #[test]
        fn loss_and_gradient_are_finite(seed in 0u64..300, batch in 2usize..10, bins in 2usize..6, eta in 0.0f32..20.0) {
            let mut rng = lrng::seeded(seed);
            let logits = lrng::normal_matrix(&mut rng, batch, bins, 2.0);
            let nb: Vec<usize> = (0..batch * 5).map(|i| (i * 7 + seed as usize) % bins).collect();
            let targets = neighbor_bin_targets(&nb, batch, 5, bins, true);
            let (value, grad) = unsupervised_loss(&logits, &targets, None, eta);
            prop_assert!(value.total.is_finite());
            prop_assert!(value.quality >= -1e-5);
            prop_assert!(value.balance <= 1e-6); // it is a negated sum of probabilities
            prop_assert!(value.balance >= -1.0 - 1e-5); // window mass cannot exceed the batch
            prop_assert!(grad.as_slice().iter().all(|g| g.is_finite()));
        }
    }
}
