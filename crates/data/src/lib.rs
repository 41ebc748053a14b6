//! Datasets for the Neural Partitioner workspace.
//!
//! The paper evaluates on the ann-benchmarks SIFT1M and MNIST datasets with 10k held-out
//! queries, and on 2-D scikit-learn toy datasets for the clustering comparison. This crate
//! provides:
//!
//! * [`dataset`] — the [`dataset::Dataset`] container (points + optional generative labels)
//!   and train/query splits;
//! * [`synthetic`] — seeded generators: clustered high-dimensional data standing in for
//!   SIFT/MNIST (`sift_like`, `mnist_like`), plus `moons`, `circles`, `blobs` and
//!   `classification` used by the clustering experiments (Table 5);
//! * [`io`] — fvecs/ivecs/bvecs readers and writers for the real ann-benchmarks files
//!   (no experiment reads one yet; ROADMAP items 3(2) and 14(1) bring them in);
//! * [`ground_truth`] — exact (brute-force, parallel) k-NN computation and the k′-NN matrix
//!   that is the paper's only preprocessing step (§4.2.1), both on the streaming scan
//!   the index itself runs (`usp_linalg::kernel::SegmentedScan`).

pub mod dataset;
pub mod ground_truth;
pub mod io;
pub mod synthetic;

pub use dataset::{Dataset, SplitDataset};
pub use ground_truth::{exact_knn, KnnMatrix};
