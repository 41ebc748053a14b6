//! Shared helpers for the benchmark suite: small seeded workloads used by both the
//! Criterion micro-benchmarks.

use usp_data::{Dataset, KnnMatrix, SplitDataset};
use usp_linalg::Distance;

/// Distance used across the benchmark suite.
pub const DIST: Distance = Distance::SquaredEuclidean;

/// A small clustered workload for micro-benchmarks (2k base points, 16 dimensions).
pub fn bench_dataset() -> SplitDataset {
    usp_data::synthetic::sift_like(2_100, 16, 7).split_queries(100)
}

/// A tiny clustered dataset (for construction-heavy benches).
pub fn tiny_dataset() -> Dataset {
    usp_data::synthetic::sift_like(600, 16, 9)
}

/// The k'-NN matrix of the benchmark workload's base points.
pub fn bench_knn(split: &SplitDataset, k: usize) -> KnnMatrix {
    KnnMatrix::build(split.base.points(), k, DIST)
}
