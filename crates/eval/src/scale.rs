//! Experiment sizing.
//!
//! The paper's experiments use SIFT1M (1M × 128) and MNIST (60k × 784) with 10k queries.
//! The reproduction runs on synthetic stand-ins whose size defaults to a laptop-friendly
//! scale and can be grown through the `USP_SCALE` environment variable:
//!
//! * `USP_SCALE=small` (default) — quick, minutes for the full suite;
//! * `USP_SCALE=medium` — ~4× more points;
//! * `USP_SCALE=large`  — ~16× more points (closer to the paper's regime, much slower).

use usp_data::{synthetic, SplitDataset};

/// Sizes used by every experiment.
#[derive(Debug, Clone)]
pub struct Scale {
    /// Human-readable name of the scale (small/medium/large/custom).
    pub name: String,
    /// Points in the SIFT-like dataset.
    pub sift_n: usize,
    /// Dimensionality of the SIFT-like dataset (128 in the paper).
    pub sift_dim: usize,
    /// Points in the MNIST-like dataset.
    pub mnist_n: usize,
    /// Dimensionality of the MNIST-like dataset (784 in the paper).
    pub mnist_dim: usize,
    /// Held-out queries per dataset.
    pub queries: usize,
    /// Depth of the binary-tree comparison (10 in the paper ⇒ 1024 bins).
    pub tree_depth: usize,
    /// Training epochs for the partitioning models.
    pub epochs: usize,
}

impl Scale {
    /// The default laptop scale.
    pub fn small() -> Self {
        Self {
            name: "small".into(),
            sift_n: 4000,
            sift_dim: 32,
            mnist_n: 2500,
            mnist_dim: 48,
            queries: 150,
            tree_depth: 6,
            epochs: 30,
        }
    }

    /// Roughly 4× the small scale.
    pub fn medium() -> Self {
        Self {
            name: "medium".into(),
            sift_n: 16_000,
            sift_dim: 64,
            mnist_n: 10_000,
            mnist_dim: 128,
            queries: 400,
            tree_depth: 8,
            epochs: 60,
        }
    }

    /// Closer to the paper's regime; expect long runtimes.
    pub fn large() -> Self {
        Self {
            name: "large".into(),
            sift_n: 64_000,
            sift_dim: 128,
            mnist_n: 30_000,
            mnist_dim: 256,
            queries: 1000,
            tree_depth: 10,
            epochs: 100,
        }
    }

    /// Reads `USP_SCALE` (small/medium/large), defaulting to small when it is unset or
    /// empty.
    ///
    /// # Panics
    ///
    /// On any other value: a misspelt scale must not silently run the small one.
    pub fn from_env() -> Self {
        let name = std::env::var("USP_SCALE").unwrap_or_default();
        Self::named(&name).unwrap_or_else(|| {
            panic!("USP_SCALE={name:?} is not one of small|medium|large (or unset)")
        })
    }

    /// The scale `USP_SCALE` names, case-insensitively; `""` is small.
    fn named(name: &str) -> Option<Self> {
        match name.to_lowercase().as_str() {
            "" | "small" => Some(Self::small()),
            "medium" => Some(Self::medium()),
            "large" => Some(Self::large()),
            _ => None,
        }
    }

    /// The SIFT-like workload at this scale, split into base points and queries.
    pub fn sift_like(&self, seed: u64) -> SplitDataset {
        synthetic::sift_like(self.sift_n + self.queries, self.sift_dim, seed)
            .split_queries(self.queries)
    }

    /// The MNIST-like workload at this scale, split into base points and queries.
    pub fn mnist_like(&self, seed: u64) -> SplitDataset {
        synthetic::mnist_like(self.mnist_n + self.queries, self.mnist_dim, seed)
            .split_queries(self.queries)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn scales_are_ordered() {
        let s = Scale::small();
        let m = Scale::medium();
        let l = Scale::large();
        assert!(s.sift_n < m.sift_n && m.sift_n < l.sift_n);
        assert!(s.tree_depth <= m.tree_depth && m.tree_depth <= l.tree_depth);
    }

    #[test]
    fn datasets_have_requested_shapes() {
        let s = Scale::small();
        let sift = s.sift_like(1);
        assert_eq!(sift.n_base(), s.sift_n);
        assert_eq!(sift.n_queries(), s.queries);
        assert_eq!(sift.dim(), s.sift_dim);
        let mnist = s.mnist_like(2);
        assert_eq!(mnist.n_base(), s.mnist_n);
        assert_eq!(mnist.dim(), s.mnist_dim);
    }

    #[test]
    fn from_env_defaults_to_small() {
        std::env::remove_var("USP_SCALE");
        assert_eq!(Scale::from_env().name, "small");
    }

    #[test]
    fn only_the_three_scale_names_are_recognised() {
        let known = [
            ("", "small"),
            ("Small", "small"),
            ("medium", "medium"),
            ("LARGE", "large"),
        ];
        for (name, want) in known {
            assert_eq!(Scale::named(name).unwrap().name, want);
        }
        assert!(Scale::named("lage").is_none());
    }
}
