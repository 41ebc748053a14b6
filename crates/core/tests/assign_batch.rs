//! The batch contract of `Partitioner::assign_batch` for the paper's partitioners:
//! entry `i` is `assign(points.row(i))` bit for bit, on one pool thread and on four,
//! over matrices with duplicate rows and a NaN row whose sizes cross multiples of
//! `ASSIGN_BLOCK` (32), the trained router's block. `usp-baselines`' suite of the same
//! name covers every baseline.

use std::sync::OnceLock;

use proptest::prelude::*;
use usp_core::{train_partitioner, HierarchicalPartitioner, UspConfig};
use usp_data::{synthetic, KnnMatrix};
use usp_index::Partitioner;
use usp_linalg::{rng as lrng, Distance, Matrix};

const DIM: usize = 6;
const BLOCK: usize = 32;

/// The dataset both partitioners were trained on, and the trained partitioners.
fn fixture() -> &'static (Matrix, Vec<Box<dyn Partitioner>>) {
    static TRAINED: OnceLock<(Matrix, Vec<Box<dyn Partitioner>>)> = OnceLock::new();
    TRAINED.get_or_init(|| {
        let data = synthetic::sift_like(240, DIM, 7).points().clone();
        let knn = KnnMatrix::build(&data, 5, Distance::SquaredEuclidean);
        let cfg = UspConfig {
            knn_k: 5,
            epochs: 5,
            ..UspConfig::fast(8)
        };
        let partitioners: Vec<Box<dyn Partitioner>> = vec![
            Box::new(train_partitioner(&data, &knn, &cfg, None)),
            Box::new(HierarchicalPartitioner::train(
                &data,
                &cfg,
                &[4, 2],
                Distance::SquaredEuclidean,
            )),
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
