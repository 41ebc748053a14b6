//! Dense linear-algebra primitives used throughout the Neural Partitioner workspace.
//!
//! This crate is the lowest layer of the workspace. It provides:
//!
//! * [`Matrix`] — a row-major `f32` matrix with (rayon-)parallel matrix multiplication,
//!   the only "tensor" type the neural-network crate needs;
//! * [`distance`] — Euclidean / inner-product / cosine distance kernels and the
//!   [`distance::Distance`] dispatch enum;
//! * [`kernel`] — blocked multi-accumulator distance kernels fused with streaming
//!   top-k selection: the single scoring source of truth for the online phase;
//! * [`kernel_columns`] — one vector against the column-major points of a codebook or
//!   dataset: the distances and nearest point under k-means, PQ encoding and ADC tables;
//! * [`kernel_gemm`] — the matrix-product kernels under [`Matrix`] and [`matrix::dot`]:
//!   the arithmetic every trained model's bits depend on;
//! * [`topk`] — top-k selection (both smallest and largest) and argmax;
//! * [`stats`] — softmax and friends, means and variances;
//! * [`pca`] — principal components via power iteration on the (implicit) covariance;
//! * [`rng`] — seeded RNG construction and Gaussian sampling helpers.
//!
//! Everything is deliberately simple, allocation-conscious and exhaustively unit tested:
//! the higher layers (the unsupervised partitioning loss in particular) depend on these
//! kernels being correct.

pub mod distance;
pub mod eigen;
pub mod kernel;
mod kernel_backend;
pub mod kernel_columns;
pub mod kernel_gemm;
pub mod matrix;
pub mod pca;
pub mod rng;
pub mod stats;
pub mod topk;

pub use distance::Distance;
pub use matrix::Matrix;
