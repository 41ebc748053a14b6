//! Clustering comparators and clustering-quality metrics (Table 5 of the paper).
//!
//! The paper closes its evaluation by using the learned partitioner as a *clustering*
//! method and comparing it, on the classic scikit-learn toy datasets, against DBSCAN,
//! K-means and spectral clustering. The paper's comparison is a picture grid; this
//! workspace reports the equivalent quantitative scores (Adjusted Rand Index, normalized
//! mutual information, purity) against the generative labels.
//!
//! * [`dbscan`](mod@dbscan) — density-based clustering (Ester et al., 1996);
//! * [`spectral`] — normalized-cut spectral clustering (Ng, Jordan & Weiss, 2001) with
//!   eigenvectors obtained by shifted power iteration;
//! * [`metrics`] — ARI, NMI and purity. (K-means itself lives in `usp-quant`.)

pub mod dbscan;
pub mod metrics;
pub mod spectral;

pub use dbscan::{dbscan, DbscanConfig, NOISE};
pub use metrics::{adjusted_rand_index, normalized_mutual_information, purity};
pub use spectral::{spectral_clustering, SpectralConfig};
