//! Vector quantization: k-means, product quantization and ScaNN-style anisotropic
//! quantization.
//!
//! Figure 7 of the paper composes its partitioner with ScaNN's anisotropic vector
//! quantization and compares the pipeline against vanilla ScaNN, K-means + ScaNN, HNSW and
//! FAISS. None of those systems are linkable here, so this crate implements the relevant
//! algorithms from scratch (see DESIGN.md §1 for the substitution table):
//!
//! * [`kmeans`] — Lloyd's algorithm with k-means++ seeding (shared by PQ codebooks and
//!   the K-means partitioner, which is also Figure 7's IVF-Flat: FAISS's coarse
//!   quantizer + inverted lists is a `PartitionIndex` over K-means bins);
//! * [`pq`] — product quantization with asymmetric distance computation (ADC) tables;
//! * [`anisotropic`] — score-aware (anisotropic) codebook training as published for ScaNN
//!   (Guo et al. 2020): the residual component parallel to the data point is penalised
//!   more than the orthogonal component;
//! * [`scann`] — ScaNN-like search: `ScannConfig::build_index` is the compressed
//!   `PartitionIndex` (anisotropic-PQ ADC scan, exact re-ranking of the best codes) of
//!   every ScaNN series in Figure 7 — over one bin for "vanilla ScaNN", over a
//!   partitioner's bins for "USP + ScaNN" and "K-means + ScaNN".
//!
//! No search loop lives here: every scan above the codebooks is the index's
//! (`usp_index::stream`).

pub mod anisotropic;
pub mod kmeans;
pub mod pq;
pub mod scann;

pub use anisotropic::AnisotropicConfig;
pub use kmeans::{KMeans, KMeansConfig};
pub use pq::{CodebookKind, ProductQuantizer, ProductQuantizerConfig};
pub use scann::ScannConfig;
