//! Criterion bench: per-query bin inference cost of each partitioner (the O(d) online
//! term of §4.5) — USP MLP vs K-means centroid scan vs cross-polytope LSH vs a KD-tree.
//!
//! Group `assign_batch` is the index build's assignment of all 2 000 base rows:
//! `Partitioner::assign_batch` against the per-row loop (one `assign` a row on the
//! pool), for the trained router (blocked forward) and K-means (which keeps the loop).
use criterion::{criterion_group, criterion_main, Criterion};
use rayon::prelude::*;
use std::hint::black_box;
use usp_baselines::{BinaryPartitionTree, CrossPolytopeLsh, KMeansPartitioner, TreeConfig};
use usp_core::{train_partitioner, UspConfig};
use usp_index::Partitioner;

fn bench_assignment(c: &mut Criterion) {
    let split = usp_bench::bench_dataset();
    let data = split.base.points();
    let knn = usp_bench::bench_knn(&split, 5);
    let query = split.queries.row_to_vec(0);

    let usp = train_partitioner(
        data,
        &knn,
        &UspConfig {
            knn_k: 5,
            epochs: 5,
            ..UspConfig::fast(16)
        },
        None,
    );
    let kmeans = KMeansPartitioner::fit(data, 16, 3);
    let lsh = CrossPolytopeLsh::fit(data, 16, 4);
    let tree = BinaryPartitionTree::kd(data, &TreeConfig::new(4));

    let mut group = c.benchmark_group("assignment");
    group.bench_function("usp_mlp", |b| {
        b.iter(|| black_box(usp.assign(black_box(&query))))
    });
    group.bench_function("kmeans_16", |b| {
        b.iter(|| black_box(kmeans.assign(black_box(&query))))
    });
    group.bench_function("cross_polytope_lsh", |b| {
        b.iter(|| black_box(lsh.assign(black_box(&query))))
    });
    group.bench_function("kd_tree_depth4", |b| {
        b.iter(|| black_box(tree.assign(black_box(&query))))
    });
    group.finish();

    let per_row = |p: &dyn Partitioner| -> Vec<usize> {
        (0..data.rows())
            .into_par_iter()
            .map(|i| p.assign(data.row(i)))
            .collect()
    };
    let mut group = c.benchmark_group("assign_batch");
    group.bench_function("usp_mlp/batch", |b| {
        b.iter(|| black_box(usp.assign_batch(black_box(data))))
    });
    group.bench_function("usp_mlp/per_row", |b| b.iter(|| black_box(per_row(&usp))));
    group.bench_function("kmeans_16/batch", |b| {
        b.iter(|| black_box(kmeans.assign_batch(black_box(data))))
    });
    group.bench_function("kmeans_16/per_row", |b| {
        b.iter(|| black_box(per_row(&kmeans)))
    });
    group.finish();
}

criterion_group! {
    name = benches;
    config = Criterion::default().sample_size(20);
    targets = bench_assignment
}
criterion_main!(benches);
