//! Workspace-level property-based tests on invariants that span crates: the loss, the
//! lookup-table index, and candidate retrieval must stay consistent for arbitrary
//! (seeded) clustered datasets and configurations.

use proptest::prelude::*;
use usp_core::{loss, train_partitioner, UspConfig};
use usp_data::{synthetic, KnnMatrix};
use usp_index::{PartitionIndex, Partitioner};
use usp_linalg::{stats, Distance, Matrix};

const DIST: Distance = Distance::SquaredEuclidean;

proptest! {
    #![proptest_config(ProptestConfig::with_cases(8))]

    /// The softmax of any trained (or untrained) model is a distribution, and the lookup
    /// table built from it is a true partition: every point appears in exactly one bucket.
    #[test]
    fn lookup_table_is_a_partition(seed in 0u64..50, bins in 2usize..6) {
        let ds = synthetic::sift_like(300, 6, seed);
        let data = ds.points();
        let knn = KnnMatrix::build(data, 4, DIST);
        let cfg = UspConfig { knn_k: 4, epochs: 3, batch_size: 64, ..UspConfig::fast(bins) };
        let trained = train_partitioner(data, &knn, &cfg, None);
        let index = PartitionIndex::build(trained, data, DIST);

        let sizes = index.bucket_sizes();
        prop_assert_eq!(sizes.iter().sum::<usize>(), data.rows());
        let mut seen = vec![false; data.rows()];
        for b in 0..index.num_bins() {
            for &id in index.bucket(b) {
                prop_assert!(!seen[id as usize], "point {} in two buckets", id);
                seen[id as usize] = true;
            }
        }
        prop_assert!(seen.into_iter().all(|s| s));
    }

    /// Candidate sets grow monotonically with the probe count and eventually cover the
    /// whole dataset.
    #[test]
    fn candidates_grow_monotonically(seed in 0u64..50) {
        let ds = synthetic::sift_like(250, 5, seed);
        let data = ds.points();
        let knn = KnnMatrix::build(data, 4, DIST);
        let cfg = UspConfig { knn_k: 4, epochs: 3, batch_size: 64, ..UspConfig::fast(4) };
        let index = PartitionIndex::build(train_partitioner(data, &knn, &cfg, None), data, DIST);
        let q = data.row(0);
        let mut prev = 0usize;
        for probes in 1..=4 {
            let c = index.probe(q, probes).1.len();
            prop_assert!(c >= prev);
            prev = c;
        }
        prop_assert_eq!(prev, data.rows());
    }

    /// The unsupervised loss gradient always has the "rows sum to ~0" structure of a
    /// softmax cross-entropy gradient when eta = 0, and stays finite for any eta.
    #[test]
    fn loss_gradient_structure(seed in 0u64..200, eta in 0.0f32..30.0, batch in 2usize..12, bins in 2usize..8) {
        let mut rng = usp_linalg::rng::seeded(seed);
        let logits = usp_linalg::rng::normal_matrix(&mut rng, batch, bins, 1.5);
        let nb: Vec<usize> = (0..batch * 4).map(|i| (i * 13 + seed as usize) % bins).collect();
        let targets = loss::neighbor_bin_targets(&nb, batch, 4, bins, true);
        let (value, grad) = loss::unsupervised_loss(&logits, &targets, None, eta);
        prop_assert!(value.total.is_finite());
        prop_assert!(grad.as_slice().iter().all(|g| g.is_finite()));
        if eta == 0.0 {
            for i in 0..batch {
                let s: f32 = grad.row(i).iter().sum();
                prop_assert!(s.abs() < 1e-4);
            }
        }
    }

    /// Bin scores produced by a trained partitioner are valid probability distributions
    /// for arbitrary query points (including points far outside the data range).
    #[test]
    fn bin_scores_are_distributions(seed in 0u64..50, qx in -100f32..100.0, qy in -100f32..100.0) {
        let ds = synthetic::sift_like(200, 2, seed);
        let knn = KnnMatrix::build(ds.points(), 4, DIST);
        let cfg = UspConfig { knn_k: 4, epochs: 3, batch_size: 64, ..UspConfig::fast(4) };
        let trained = train_partitioner(ds.points(), &knn, &cfg, None);
        let scores = trained.bin_scores(&[qx, qy]);
        prop_assert_eq!(scores.len(), 4);
        let sum: f32 = scores.iter().sum();
        prop_assert!((sum - 1.0).abs() < 1e-3);
        prop_assert!(scores.iter().all(|&s| (0.0..=1.0 + 1e-5).contains(&s)));
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    /// Balance statistics and the expected candidate size agree on the balanced optimum.
    #[test]
    fn perfectly_balanced_partition_minimises_expected_candidates(bins in 1usize..32, per in 1usize..64) {
        let sizes = vec![per; bins];
        let ecs = usp_index::balance::expected_candidate_size(&sizes);
        prop_assert!((ecs - per as f64).abs() < 1e-9);
        let stats = usp_index::balance::BalanceStats::from_sizes(&sizes);
        prop_assert!((stats.imbalance - 1.0).abs() < 1e-9);
    }

    /// Softmax rows of arbitrary logits matrices stay distributions after the shared
    /// helper is applied (used by every model in the workspace).
    #[test]
    fn softmax_rows_matrix_invariant(rows in 1usize..10, cols in 1usize..10, seed in 0u64..100) {
        let m = usp_linalg::rng::normal_matrix(&mut usp_linalg::rng::seeded(seed), rows, cols, 3.0);
        let p: Matrix = stats::softmax_rows(&m);
        for i in 0..rows {
            let s: f32 = p.row(i).iter().sum();
            prop_assert!((s - 1.0).abs() < 1e-4);
        }
    }
}
