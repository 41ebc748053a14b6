//! Partition balance statistics.
//!
//! The second objective of the paper's loss is an even distribution of the `n` points over
//! the `m` bins (≈ `n/m` each), because the expected candidate-set size — and therefore
//! query cost — is driven by bin occupancy. These statistics quantify how balanced a
//! produced partition actually is; they are reported by the experiments and asserted on by
//! property tests.

/// Summary statistics of bin occupancies.
#[derive(Debug, Clone, PartialEq)]
pub struct BalanceStats {
    /// Number of bins (including empty ones).
    pub bins: usize,
    /// Total number of points.
    pub total: usize,
    /// Smallest bin size.
    pub min: usize,
    /// Largest bin size.
    pub max: usize,
    /// Mean bin size (`total / bins`).
    pub mean: f64,
    /// Population standard deviation of bin sizes.
    pub std_dev: f64,
    /// `max / mean` — 1.0 is perfectly balanced; KaHIP-style partitioners bound this.
    pub imbalance: f64,
    /// Number of empty bins.
    pub empty_bins: usize,
}

impl BalanceStats {
    /// Computes statistics from a bin-size histogram.
    pub fn from_sizes(sizes: &[usize]) -> Self {
        let bins = sizes.len();
        let total: usize = sizes.iter().sum();
        let min = sizes.iter().copied().min().unwrap_or(0);
        let max = sizes.iter().copied().max().unwrap_or(0);
        let mean = if bins > 0 {
            total as f64 / bins as f64
        } else {
            0.0
        };
        let var = if bins > 0 {
            sizes
                .iter()
                .map(|&s| (s as f64 - mean) * (s as f64 - mean))
                .sum::<f64>()
                / bins as f64
        } else {
            0.0
        };
        let imbalance = if mean > 0.0 { max as f64 / mean } else { 0.0 };
        let empty_bins = sizes.iter().filter(|&&s| s == 0).count();
        Self {
            bins,
            total,
            min,
            max,
            mean,
            std_dev: var.sqrt(),
            imbalance,
            empty_bins,
        }
    }

    /// Computes statistics directly from per-point bin assignments.
    pub fn from_assignments(assignments: &[usize], bins: usize) -> Self {
        let mut sizes = vec![0usize; bins];
        for &a in assignments {
            assert!(a < bins, "assignment {a} out of range for {bins} bins");
            sizes[a] += 1;
        }
        Self::from_sizes(&sizes)
    }
}

/// Expected candidate-set size if queries were uniformly distributed over points:
/// `sum_b (size_b / n) * size_b`, i.e. the occupancy-weighted mean bin size. For a
/// perfectly balanced partition this equals `n / m`; it grows quadratically with skew.
pub fn expected_candidate_size(sizes: &[usize]) -> f64 {
    let n: usize = sizes.iter().sum();
    if n == 0 {
        return 0.0;
    }
    sizes
        .iter()
        .map(|&s| (s as f64 / n as f64) * s as f64)
        .sum()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn perfectly_balanced_partition() {
        let stats = BalanceStats::from_sizes(&[25, 25, 25, 25]);
        assert_eq!(stats.total, 100);
        assert_eq!(stats.min, 25);
        assert_eq!(stats.max, 25);
        assert!((stats.imbalance - 1.0).abs() < 1e-9);
        assert_eq!(stats.std_dev, 0.0);
        assert_eq!(stats.empty_bins, 0);
    }

    #[test]
    fn skewed_partition_detected() {
        let stats = BalanceStats::from_sizes(&[97, 1, 1, 1]);
        assert!(stats.imbalance > 3.0);
        assert_eq!(stats.max, 97);
        assert_eq!(stats.min, 1);
    }

    #[test]
    fn from_assignments_counts_bins() {
        let stats = BalanceStats::from_assignments(&[0, 1, 1, 2, 2, 2], 4);
        assert_eq!(stats.total, 6);
        assert_eq!(stats.max, 3);
        assert_eq!(stats.empty_bins, 1);
    }

    #[test]
    #[should_panic]
    fn out_of_range_assignment_panics() {
        let _ = BalanceStats::from_assignments(&[5], 4);
    }

    #[test]
    fn expected_candidate_size_balanced_vs_skewed() {
        // Balanced: n/m = 25. Skewed: much larger.
        assert!((expected_candidate_size(&[25, 25, 25, 25]) - 25.0).abs() < 1e-9);
        let skewed = expected_candidate_size(&[97, 1, 1, 1]);
        assert!(skewed > 90.0, "skewed expected candidate size {skewed}");
        assert_eq!(expected_candidate_size(&[]), 0.0);
    }
}

#[cfg(test)]
mod proptests {
    use super::*;
    use proptest::prelude::*;

    proptest! {
        #[test]
        fn stats_are_internally_consistent(sizes in prop::collection::vec(0usize..500, 1..64)) {
            let s = BalanceStats::from_sizes(&sizes);
            prop_assert_eq!(s.total, sizes.iter().sum::<usize>());
            prop_assert!(s.min <= s.max);
            prop_assert!(s.mean >= s.min as f64 - 1e-9);
            prop_assert!(s.mean <= s.max as f64 + 1e-9);
            if s.mean > 0.0 {
                prop_assert!(s.imbalance >= 1.0 - 1e-9);
            }
        }

        #[test]
        fn expected_candidate_size_at_least_balanced_optimum(sizes in prop::collection::vec(0usize..200, 1..32)) {
            let n: usize = sizes.iter().sum();
            if n > 0 {
                let ecs = expected_candidate_size(&sizes);
                let optimum = n as f64 / sizes.len() as f64;
                prop_assert!(ecs + 1e-6 >= optimum);
            }
        }
    }
}
