//! Criterion bench: k'-NN matrix construction — the paper's only preprocessing step
//! (§4.2.1), reported as ~30 minutes on SIFT1M and seconds at reproduction scale.
//!
//! Group `knn_matrix` is the walker's A/B: `KnnMatrix::build` (the tile walker, each
//! unordered pair scored once, blocks of rows kept in cache) against the one-sided build
//! it replaced, composed here from the public `SegmentedScan` — one scan per point over
//! the rows either side of it, parallel over points — at the benchmark fixture's shape
//! (8 000 × 64, k′ = 5) and at 20 000 × 128, k′ = 10. Both use the whole pool and both
//! build the same matrix (asserted once per shape). Read the min column.
use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use rayon::prelude::*;
use std::hint::black_box;
use usp_data::KnnMatrix;
use usp_linalg::kernel::SegmentedScan;
use usp_linalg::Matrix;

fn bench_knn_graph(c: &mut Criterion) {
    let data = usp_bench::tiny_dataset();
    let mut group = c.benchmark_group("knn_matrix_600pts");
    for k in [5usize, 10] {
        group.bench_with_input(BenchmarkId::from_parameter(k), &k, |b, &k| {
            b.iter(|| black_box(KnnMatrix::build(data.points(), k, usp_bench::DIST)))
        });
    }
    group.finish();
}

/// The k′-NN matrix's flat neighbour buffer, every pair scored from both sides.
fn one_sided(points: &Matrix, k: usize) -> Vec<u32> {
    let (n, dim) = points.shape();
    let rows = points.as_slice();
    (0..n)
        .into_par_iter()
        .flat_map_iter(|i| {
            let mut scan = SegmentedScan::new(usp_bench::DIST, points.row(i), dim, k);
            scan.scan_segment(&rows[..i * dim], i, 0);
            scan.scan_segment(&rows[(i + 1) * dim..], n - i - 1, i + 1);
            scan.into_winners()
                .into_iter()
                .map(|(first, offset, _)| (first + offset) as u32)
        })
        .collect()
}

fn bench_walker(c: &mut Criterion) {
    let mut group = c.benchmark_group("knn_matrix");
    group.sample_size(3);
    for (n, dim, k) in [(8_000usize, 64usize, 5usize), (20_000, 128, 10)] {
        let data = usp_data::synthetic::sift_like(n, dim, 11);
        let points = data.points();
        assert_eq!(
            KnnMatrix::build(points, k, usp_bench::DIST).as_slice(),
            one_sided(points, k).as_slice(),
            "{n}x{dim}: the walker and the one-sided build disagree"
        );
        let shape = format!("{n}x{dim}_k{k}");
        group.bench_function(BenchmarkId::new("walker", &shape), |b| {
            b.iter(|| black_box(KnnMatrix::build(points, k, usp_bench::DIST)))
        });
        group.bench_function(BenchmarkId::new("one_sided", &shape), |b| {
            b.iter(|| black_box(one_sided(points, k)))
        });
    }
    group.finish();
}

criterion_group! {
    name = benches;
    config = Criterion::default().sample_size(10);
    targets = bench_knn_graph, bench_walker
}
criterion_main!(benches);
