//! The batch contract of `Partitioner::assign_batch` for every baseline: entry `i` is
//! `assign(points.row(i))` bit for bit, on one pool thread and on four, over matrices
//! with duplicate rows and a NaN row whose sizes cross multiples of 32 (the trained
//! router's block; `usp-core`'s suite of the same name covers it and the hierarchy).

use std::sync::OnceLock;

use proptest::prelude::*;
use usp_baselines::{
    BinaryPartitionTree, BoostedSearchForest, CrossPolytopeLsh, HyperplaneLsh, KMeansPartitioner,
    NeuralLsh, NeuralLshConfig, TreeConfig,
};
use usp_data::{synthetic, KnnMatrix};
use usp_index::partitioner::RoundRobinPartitioner;
use usp_index::Partitioner;
use usp_linalg::{rng as lrng, Distance, Matrix};

const DIM: usize = 6;
const BLOCK: usize = 32;

/// The dataset every partitioner was fitted on, and the fitted partitioners.
fn fixture() -> &'static (Matrix, Vec<Box<dyn Partitioner>>) {
    static FITTED: OnceLock<(Matrix, Vec<Box<dyn Partitioner>>)> = OnceLock::new();
    FITTED.get_or_init(|| {
        let data = synthetic::sift_like(240, DIM, 7).points().clone();
        let knn = KnnMatrix::build(&data, 5, Distance::SquaredEuclidean);
        let tree = TreeConfig::new(3);
        let nlsh = NeuralLshConfig {
            epochs: 5,
            ..NeuralLshConfig::small(8)
        };
        let partitioners: Vec<Box<dyn Partitioner>> = vec![
            Box::new(RoundRobinPartitioner::new(8)),
            Box::new(KMeansPartitioner::fit(&data, 8, 1)),
            Box::new(BinaryPartitionTree::kd(&data, &tree)),
            Box::new(BinaryPartitionTree::pca(&data, &tree)),
            Box::new(BinaryPartitionTree::random_projection(&data, &tree)),
            Box::new(BinaryPartitionTree::two_means(&data, &tree)),
            Box::new(CrossPolytopeLsh::fit(&data, 8, 2)),
            Box::new(HyperplaneLsh::fit(&data, 3, 3)),
            Box::new(BoostedSearchForest::train(&data, &knn, 2, &tree, 4)),
            Box::new(NeuralLsh::fit(&data, &knn, &nlsh)),
        ];
        (data, partitioners)
    })
}

/// `n` data rows plus noise; every fourth row repeats the row before it and row
/// `n / 2` is all NaN.
fn points(data: &Matrix, n: usize, seed: u64) -> Matrix {
    let mut m = lrng::normal_matrix(&mut lrng::seeded(seed), n, DIM, 0.5);
    for i in 0..n {
        if i % 4 == 3 {
            let prev = m.row_to_vec(i - 1);
            m.row_mut(i).copy_from_slice(&prev);
        } else {
            let src = data.row((seed as usize + 37 * i) % data.rows());
            m.row_mut(i).iter_mut().zip(src).for_each(|(x, s)| *x += s);
        }
    }
    if n > 0 {
        m.row_mut(n / 2).fill(f32::NAN);
    }
    m
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]
    #[test]
    fn assign_batch_is_the_per_row_assign(blocks in 0usize..5, off in 0usize..3, seed in 0u64..1000) {
        let (data, partitioners) = fixture();
        let n = (blocks * BLOCK + off).saturating_sub(1);
        let m = points(data, n, seed);
        for p in partitioners {
            let want: Vec<usize> = (0..n).map(|i| p.assign(m.row(i))).collect();
            for threads in [1, 4] {
                let got = rayon::with_num_threads(threads, || p.assign_batch(&m));
                prop_assert_eq!(&got, &want, "{} over {} rows, {} threads", p.name(), n, threads);
            }
        }
    }
}
