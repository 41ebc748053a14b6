//! Criterion bench: one mini-batch step of Algorithm 1 (`usp_core::train_step`:
//! neighbour assignment + forward + loss + backward + Adam) for the paper's MLP and for
//! logistic regression, plus the kernel-level A/B under it: the forward GEMM one `dot`
//! per output against the register-blocked kernel, on the calling thread.
use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use std::hint::black_box;
use usp_core::{train_step, ModelKind, PartitionModel, UspConfig};
use usp_linalg::{kernel_gemm, rng};
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
    }
    group.finish();
}

criterion_group! {
    name = benches;
    config = Criterion::default().sample_size(10);
    targets = bench_training_step, bench_gemm
}
criterion_main!(benches);
