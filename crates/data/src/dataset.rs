//! Dataset containers.
//!
//! A [`Dataset`] is a dense matrix of points (one row per point) plus optional generative
//! labels (used only by the clustering experiments — the ANN pipeline never sees labels,
//! the method is unsupervised). A [`SplitDataset`] bundles base points with out-of-sample
//! query points, mirroring the ann-benchmarks layout the paper uses.

use usp_linalg::Matrix;

/// A collection of `n` points in `R^d`, with optional generative cluster labels.
#[derive(Debug, Clone)]
pub struct Dataset {
    name: String,
    points: Matrix,
    labels: Option<Vec<usize>>,
}

impl Dataset {
    /// Wraps a point matrix into a dataset.
    pub fn new(name: impl Into<String>, points: Matrix) -> Self {
        Self {
            name: name.into(),
            points,
            labels: None,
        }
    }

    /// Wraps a point matrix and its generative labels.
    ///
    /// # Panics
    /// Panics if the number of labels does not match the number of points.
    pub fn with_labels(name: impl Into<String>, points: Matrix, labels: Vec<usize>) -> Self {
        assert_eq!(
            points.rows(),
            labels.len(),
            "Dataset::with_labels: label count mismatch"
        );
        Self {
            name: name.into(),
            points,
            labels: Some(labels),
        }
    }

    /// Dataset name used in reports.
    pub fn name(&self) -> &str {
        &self.name
    }

    /// Number of points.
    pub fn len(&self) -> usize {
        self.points.rows()
    }

    /// True when the dataset holds no points.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Dimensionality of each point.
    pub fn dim(&self) -> usize {
        self.points.cols()
    }

    /// Borrow of point `i`.
    pub fn point(&self, i: usize) -> &[f32] {
        self.points.row(i)
    }

    /// The underlying point matrix.
    pub fn points(&self) -> &Matrix {
        &self.points
    }

    /// Generative labels, when the dataset was produced by a labelled generator.
    pub fn labels(&self) -> Option<&[usize]> {
        self.labels.as_deref()
    }

    /// A new dataset containing only the selected points (labels are carried along).
    pub fn subset(&self, indices: &[usize]) -> Dataset {
        let points = self.points.select_rows(indices);
        let labels = self
            .labels
            .as_ref()
            .map(|l| indices.iter().map(|&i| l[i]).collect());
        Dataset {
            name: format!("{}[subset {}]", self.name, indices.len()),
            points,
            labels,
        }
    }

    /// Splits the dataset into base points and held-out queries.
    ///
    /// The last `n_queries` points become the query set (generators already shuffle their
    /// output, so a suffix split is an unbiased split). Labels stay with the base points.
    pub fn split_queries(self, n_queries: usize) -> SplitDataset {
        let n = self.len();
        assert!(n_queries < n, "split_queries: need at least one base point");
        let base_idx: Vec<usize> = (0..n - n_queries).collect();
        let query_idx: Vec<usize> = (n - n_queries..n).collect();
        let base = self.subset(&base_idx);
        let queries = self.points.select_rows(&query_idx);
        SplitDataset {
            base: Dataset {
                name: self.name.clone(),
                points: base.points,
                labels: base.labels,
            },
            queries,
        }
    }
}

/// Base points plus out-of-sample queries, the layout used by every ANN experiment.
#[derive(Debug, Clone)]
pub struct SplitDataset {
    /// Points to be indexed (the dataset `X` of the paper).
    pub base: Dataset,
    /// Query points, not present in `base` (the set `Q`).
    pub queries: Matrix,
}

impl SplitDataset {
    /// Number of base points.
    pub fn n_base(&self) -> usize {
        self.base.len()
    }

    /// Number of query points.
    pub fn n_queries(&self) -> usize {
        self.queries.rows()
    }

    /// Dimensionality.
    pub fn dim(&self) -> usize {
        self.base.dim()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn toy() -> Dataset {
        let m = Matrix::from_vec(4, 2, vec![0., 0., 1., 1., 2., 2., 3., 3.]);
        Dataset::with_labels("toy", m, vec![0, 0, 1, 1])
    }

    #[test]
    fn accessors() {
        let d = toy();
        assert_eq!(d.len(), 4);
        assert_eq!(d.dim(), 2);
        assert!(!d.is_empty());
        assert_eq!(d.point(2), &[2., 2.]);
        assert_eq!(d.labels().unwrap(), &[0, 0, 1, 1]);
        assert_eq!(d.name(), "toy");
    }

    #[test]
    fn subset_keeps_labels_aligned() {
        let d = toy();
        let s = d.subset(&[3, 0]);
        assert_eq!(s.point(0), &[3., 3.]);
        assert_eq!(s.labels().unwrap(), &[1, 0]);
    }

    #[test]
    fn split_queries_partitions_points() {
        let d = toy();
        let split = d.split_queries(1);
        assert_eq!(split.n_base(), 3);
        assert_eq!(split.n_queries(), 1);
        assert_eq!(split.queries.row(0), &[3., 3.]);
        assert_eq!(split.base.labels().unwrap().len(), 3);
    }

    #[test]
    #[should_panic]
    fn split_requires_base_points() {
        toy().split_queries(4);
    }

    #[test]
    #[should_panic]
    fn mismatched_labels_panic() {
        let m = Matrix::zeros(3, 2);
        let _ = Dataset::with_labels("bad", m, vec![0, 1]);
    }
}
