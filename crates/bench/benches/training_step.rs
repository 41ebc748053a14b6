//! Criterion bench: one mini-batch step of Algorithm 1 (`usp_core::train_step`:
//! neighbour assignment + forward + loss + backward + Adam) for the paper's MLP and for
//! logistic regression, plus the kernels under it (group `gemm`): the forward GEMM one
//! `dot` per output against the blocked kernel on the calling thread, and the three
//! backward products of a `mix64` training step on one and two pool threads.
use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use std::hint::black_box;
use usp_core::{train_step, ModelKind, PartitionModel, UspConfig};
use usp_linalg::{kernel_gemm, rng, Matrix};
use usp_nn::Adam;

fn bench_training_step(c: &mut Criterion) {
    let split = usp_bench::bench_dataset();
    let knn = usp_bench::bench_knn(&split, 10);
    let data = split.base.points();
    let batch: Vec<usize> = (0..256).collect();

    let mut group = c.benchmark_group("training_step");
    for (name, model_kind) in [
        (
            "mlp_128",
            ModelKind::Mlp {
                hidden: vec![128],
                dropout: 0.1,
            },
        ),
        ("logistic", ModelKind::Logistic),
    ] {
        let cfg = UspConfig {
            model: model_kind,
            ..UspConfig::paper_default(16)
        };
        let mut model = PartitionModel::new(&cfg, data.cols());
        let mut opt = Adam::new(1e-3);
        group.bench_function(name, |b| {
            b.iter(|| {
                let value = train_step(&mut model, &mut opt, data, &knn, &batch, None, &cfg);
                black_box(value.total)
            })
        });
    }
    group.finish();
}

/// `A·Bᵀ` against the paper MLP's first layer (128 x 64): a training step's neighbour
/// forward on `mix64` (5 120 rows) and one served micro-batch (32 rows).
fn bench_gemm(c: &mut Criterion) {
    let (k, m) = (64usize, 128usize);
    let mut group = c.benchmark_group("gemm");
    for rows in [5_120usize, 32] {
        let values = rng::normal_vector(&mut rng::seeded(rows as u64), (rows + m) * k);
        let (a, b) = values.split_at(rows * k);
        let mut out = vec![0.0f32; rows * m];
        group.bench_function(BenchmarkId::new("per_element_dot", rows), |bench| {
            bench.iter(|| {
                kernel_gemm::abt_portable(a, b, rows, k, m, &mut out);
                black_box(out[rows * m - 1])
            })
        });
        group.bench_function(BenchmarkId::new("blocked", rows), |bench| {
            bench.iter(|| {
                kernel_gemm::abt(a, b, rows, k, m, &mut out);
                black_box(out[rows * m - 1])
            })
        });
        let packed = kernel_gemm::PackedBt::new(b, m, k);
        group.bench_function(BenchmarkId::new("blocked_prepacked", rows), |bench| {
            bench.iter(|| {
                kernel_gemm::abt_packed(a, rows, &packed, &mut out);
                black_box(out[rows * m - 1])
            })
        });
    }

    // `mix64`'s step: a 1024-row batch through 64 -> 128 -> 32, so the backward computes
    // dW1 = (1024x128)^T (1024x64), dW2 = (1024x32)^T (1024x128) and dX2 = (1024x32)(32x128).
    let matrix =
        |rows, cols| rng::normal_matrix(&mut rng::seeded((rows * cols) as u64), rows, cols, 1.0);
    let (x, dout1, h, dlogits, w2) = (
        matrix(1024, 64),
        matrix(1024, 128),
        matrix(1024, 128),
        matrix(1024, 32),
        matrix(32, 128),
    );
    type Product<'a> = (
        &'a str,
        &'a Matrix,
        &'a Matrix,
        fn(&Matrix, &Matrix) -> Matrix,
    );
    let products: [Product; 3] = [
        ("dW1", &dout1, &x, Matrix::transpose_matmul),
        ("dW2", &dlogits, &h, Matrix::transpose_matmul),
        ("dX2", &dlogits, &w2, Matrix::matmul),
    ];
    for (name, a, b, product) in products {
        for threads in [1, 2] {
            let id = BenchmarkId::new(name, format!("{threads}_threads"));
            group.bench_function(id, |bench| {
                bench.iter(|| rayon::with_num_threads(threads, || black_box(product(a, b))))
            });
        }
    }
    group.finish();
}

criterion_group! {
    name = benches;
    config = Criterion::default().sample_size(10);
    targets = bench_training_step, bench_gemm
}
criterion_main!(benches);
