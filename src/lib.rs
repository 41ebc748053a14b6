//! # neural-partitioner
//!
//! A Rust reproduction of *Unsupervised Space Partitioning for Nearest Neighbor Search*
//! (Fahim, Ali & Cheema, EDBT 2023), plus every substrate its evaluation depends on.
//!
//! This umbrella crate re-exports the workspace crates under stable names so downstream
//! users (and the `examples/` and `tests/` in this repository) can depend on a single
//! package:
//!
//! * [`core`] — the paper's method: unsupervised loss, trainer, ensembling, hierarchical
//!   partitioning, and the partition + quantization pipeline;
//! * [`data`] — datasets, generators, IO, exact ground truth and the k′-NN matrix;
//! * [`index`] — the shared partitioning-index abstractions (lookup table, probing,
//!   re-ranking);
//! * [`nn`] — the minimal neural-network library the models are built from;
//! * [`baselines`] — K-means, LSH families, partition trees, Neural LSH, Boosted Search
//!   Forest;
//! * [`graph`] — k-NN graphs, balanced graph partitioning, HNSW;
//! * [`quant`] — product/anisotropic quantization, ScaNN-like search;
//! * [`cluster`] — DBSCAN, spectral clustering and clustering metrics;
//! * [`eval`] — the experiment harness reproducing every table and figure;
//! * [`serve`] — the batched query-serving engine (persistent-pool batch execution,
//!   micro-batching, per-request knobs, serving statistics), whose shards are a
//!   count — bin `b` on shard `b % S`, bit-identical answers for any shard count;
//! * [`linalg`] — dense linear algebra primitives.
//!
//! See `README.md` for a quickstart and `DESIGN.md` for the architecture and the
//! substitutions made relative to the paper's original setup.

pub use usp_baselines as baselines;
pub use usp_cluster as cluster;
pub use usp_core as core;
pub use usp_data as data;
pub use usp_eval as eval;
pub use usp_graph as graph;
pub use usp_index as index;
pub use usp_linalg as linalg;
pub use usp_nn as nn;
pub use usp_quant as quant;
pub use usp_serve as serve;
