//! Criterion bench: quantized (ADC) distance evaluation vs exact distances, and encoding
//! cost — the sketching speed-up exploited by the Figure 7 pipelines — plus the
//! codebook-level A/B under the quantizer: one `squared_euclidean` per (point, centroid)
//! pair against the column kernels, and the kernels' portable form against this host's,
//! on the calling thread.
use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use std::hint::black_box;
use usp_linalg::distance::squared_euclidean;
use usp_linalg::kernel_columns::{
    nearest_column, nearest_column_portable, squared_euclidean_to_columns,
};
use usp_linalg::{rng, Distance, Matrix};
use usp_quant::{KMeans, KMeansConfig, ProductQuantizer, ProductQuantizerConfig};

fn bench_quantization(c: &mut Criterion) {
    let split = usp_bench::bench_dataset();
    let data = split.base.points();
    let pq = ProductQuantizer::fit(data, &ProductQuantizerConfig::anisotropic(8, 16, 4.0));
    let codes = pq.encode_all(data);
    let query = split.queries.row_to_vec(0);
    let table = pq.adc_table(Distance::SquaredEuclidean, &query);
    let m = pq.n_subspaces();

    let mut group = c.benchmark_group("quantization");
    group.bench_function("adc_scan_2000", |b| {
        b.iter(|| {
            let mut best = f32::INFINITY;
            for i in 0..data.rows() {
                best = best.min(pq.adc_distance(&table, &codes[i * m..(i + 1) * m]));
            }
            black_box(best)
        })
    });
    group.bench_function("exact_scan_2000", |b| {
        b.iter(|| {
            let mut best = f32::INFINITY;
            for i in 0..data.rows() {
                best = best.min(squared_euclidean(&query, data.row(i)));
            }
            black_box(best)
        })
    });
    group.bench_function("encode_one", |b| {
        b.iter(|| black_box(pq.encode(black_box(&query))))
    });
    group.finish();
}

/// The served quantizer's shape (`closed_pq_sharded`: 64 dimensions in 8 subspaces of
/// 8, 256 centroids each): one subspace's distances and nearest centroid, the nearest
/// centroid of 8 000 distinct points (a Lloyd pass's access pattern) on the portable
/// form and on this host's, the whole 8 × 256 ADC table, one subspace's codebook fit
/// (8 000 × 8, k = 256, 25 Lloyd iterations) on one thread, and the whole quantizer's
/// fit (8 000 × 64) on two.
fn bench_codebook(c: &mut Criterion) {
    let (subspaces, dim, k) = (8usize, 8usize, 256usize);
    let mut r = rng::seeded(25);
    let codebooks: Vec<Matrix> = (0..subspaces)
        .map(|_| Matrix::from_vec(k, dim, rng::normal_vector(&mut r, k * dim)))
        .collect();
    let columns: Vec<Matrix> = codebooks.iter().map(Matrix::transpose).collect();
    let query = rng::normal_vector(&mut r, subspaces * dim);
    let mut table = vec![0.0f32; subspaces * k];

    let mut group = c.benchmark_group("codebook");
    group.bench_function(BenchmarkId::new("distances_per_pair", "8x256"), |b| {
        b.iter(|| {
            for (c, t) in table[..k].iter_mut().enumerate() {
                *t = squared_euclidean(&query[..dim], codebooks[0].row(c));
            }
            black_box(table[k - 1])
        })
    });
    group.bench_function(BenchmarkId::new("distances_columns", "8x256"), |b| {
        b.iter(|| {
            squared_euclidean_to_columns(&query[..dim], columns[0].as_slice(), &mut table[..k]);
            black_box(table[k - 1])
        })
    });
    group.bench_function(BenchmarkId::new("nearest_per_pair", "8x256"), |b| {
        b.iter(|| {
            let (mut best, mut best_d) = (0usize, f32::INFINITY);
            for c in 0..k {
                let d = squared_euclidean(black_box(&query[..dim]), codebooks[0].row(c));
                if d < best_d {
                    (best, best_d) = (c, d);
                }
            }
            black_box(best)
        })
    });
    group.bench_function(BenchmarkId::new("nearest_columns", "8x256"), |b| {
        b.iter(|| {
            black_box(nearest_column(
                black_box(&query[..dim]),
                columns[0].as_slice(),
                k,
            ))
        })
    });
    let points = rng::normal_vector(&mut r, 8_000 * dim);
    for (form, nearest) in [
        (
            "nearest_columns_portable",
            nearest_column_portable as fn(_, _, _) -> _,
        ),
        ("nearest_columns", nearest_column),
    ] {
        group.bench_function(BenchmarkId::new(form, "8000x8x256"), |b| {
            b.iter(|| {
                let mut sum = 0usize;
                for point in points.chunks_exact(dim) {
                    sum += nearest(point, columns[0].as_slice(), k).0;
                }
                black_box(sum)
            })
        });
    }
    group.bench_function(BenchmarkId::new("table_per_pair", "8x8x256"), |b| {
        b.iter(|| {
            for (s, (cb, out)) in codebooks.iter().zip(table.chunks_exact_mut(k)).enumerate() {
                for (c, t) in out.iter_mut().enumerate() {
                    *t = squared_euclidean(&query[s * dim..(s + 1) * dim], cb.row(c));
                }
            }
            black_box(table[subspaces * k - 1])
        })
    });
    group.bench_function(BenchmarkId::new("table_columns", "8x8x256"), |b| {
        b.iter(|| {
            for (s, (cols, out)) in columns.iter().zip(table.chunks_exact_mut(k)).enumerate() {
                squared_euclidean_to_columns(&query[s * dim..(s + 1) * dim], cols.as_slice(), out);
            }
            black_box(table[subspaces * k - 1])
        })
    });

    let sub = Matrix::from_vec(8_000, dim, rng::normal_vector(&mut r, 8_000 * dim));
    let config = KMeansConfig {
        k,
        max_iters: 25,
        tol: 0.0,
        seed: 3,
    };
    group.sample_size(3);
    group.bench_function(BenchmarkId::new("kmeans_fit", "8000x8_k256_25it"), |b| {
        b.iter(|| rayon::with_num_threads(1, || black_box(KMeans::fit(&sub, &config).inertia)))
    });
    let served = Matrix::from_vec(
        8_000,
        subspaces * dim,
        rng::normal_vector(&mut r, 8_000 * subspaces * dim),
    );
    let pq_config = ProductQuantizerConfig::standard(subspaces, k);
    group.bench_function(BenchmarkId::new("pq_fit", "8000x64_8x256_2threads"), |b| {
        b.iter(|| {
            rayon::with_num_threads(2, || {
                black_box(ProductQuantizer::fit(&served, &pq_config).n_centroids())
            })
        })
    });
    group.finish();
}

criterion_group! {
    name = benches;
    config = Criterion::default().sample_size(20);
    targets = bench_quantization, bench_codebook
}
criterion_main!(benches);
