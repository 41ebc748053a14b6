//! DBSCAN (Ester, Kriegel, Sander & Xu, 1996).
//!
//! Density-based clustering: core points have at least `min_points` neighbours within
//! `eps`; clusters are the connected components of core points plus their border points;
//! everything else is noise. Used as a Table 5 comparator — it handles the moons/circles
//! shapes K-means cannot, but needs per-dataset `eps` tuning and does not scale to the
//! high-dimensional ANN workloads the paper targets.

use usp_linalg::{distance, Matrix};

/// Label assigned to noise points.
pub const NOISE: isize = -1;

/// DBSCAN parameters.
#[derive(Debug, Clone)]
pub struct DbscanConfig {
    /// Neighbourhood radius.
    pub eps: f32,
    /// Minimum neighbourhood size (including the point itself) for a core point.
    pub min_points: usize,
}

impl DbscanConfig {
    /// Creates a configuration.
    pub fn new(eps: f32, min_points: usize) -> Self {
        assert!(eps > 0.0 && min_points >= 1);
        Self { eps, min_points }
    }
}

/// Runs DBSCAN over the rows of `data`. Returns one label per point: `0..k` for cluster
/// members, [`NOISE`] (`-1`) for noise points.
pub fn dbscan(data: &Matrix, config: &DbscanConfig) -> Vec<isize> {
    let n = data.rows();
    let eps_sq = config.eps * config.eps;
    let neighbourhoods: Vec<Vec<usize>> = (0..n)
        .map(|i| {
            (0..n)
                .filter(|&j| distance::squared_euclidean(data.row(i), data.row(j)) <= eps_sq)
                .collect()
        })
        .collect();

    let mut labels = vec![isize::MIN; n]; // MIN = unvisited
    let mut cluster = 0isize;
    for i in 0..n {
        if labels[i] != isize::MIN {
            continue;
        }
        if neighbourhoods[i].len() < config.min_points {
            labels[i] = NOISE;
            continue;
        }
        // Start a new cluster and expand it breadth-first over density-reachable points.
        labels[i] = cluster;
        let mut queue: std::collections::VecDeque<usize> =
            neighbourhoods[i].iter().copied().collect();
        while let Some(j) = queue.pop_front() {
            if labels[j] == NOISE {
                labels[j] = cluster; // border point
            }
            if labels[j] != isize::MIN {
                continue;
            }
            labels[j] = cluster;
            if neighbourhoods[j].len() >= config.min_points {
                queue.extend(neighbourhoods[j].iter().copied());
            }
        }
        cluster += 1;
    }
    labels
}

/// Number of clusters found (noise excluded).
pub fn num_clusters(labels: &[isize]) -> usize {
    labels
        .iter()
        .filter(|&&l| l >= 0)
        .map(|&l| l as usize)
        .max()
        .map(|m| m + 1)
        .unwrap_or(0)
}

#[cfg(test)]
mod tests {
    use super::*;
    use usp_data::synthetic;

    #[test]
    fn separates_two_dense_blobs() {
        let ds = synthetic::blobs(200, 2, 2, 0.3, 1);
        let labels = dbscan(ds.points(), &DbscanConfig::new(1.0, 4));
        assert_eq!(num_clusters(&labels), 2);
        // Every point in the same generative cluster shares a DBSCAN label (no split).
        let truth = ds.labels().unwrap();
        for c in 0..2 {
            let found: std::collections::HashSet<isize> = truth
                .iter()
                .zip(&labels)
                .filter(|(&t, &l)| t == c && l >= 0)
                .map(|(_, &l)| l)
                .collect();
            assert_eq!(
                found.len(),
                1,
                "generative cluster {c} split into {found:?}"
            );
        }
    }

    #[test]
    fn finds_non_convex_moons() {
        let ds = synthetic::moons(300, 0.05, 2);
        let labels = dbscan(ds.points(), &DbscanConfig::new(0.2, 4));
        assert_eq!(
            num_clusters(&labels),
            2,
            "moons should form exactly two clusters"
        );
        let noise = labels.iter().filter(|&&l| l == NOISE).count();
        assert!(noise < 15, "too much noise: {noise}");
    }

    #[test]
    fn isolated_points_are_noise() {
        let mut rows = vec![vec![0.0f32, 0.0]; 10];
        for (i, r) in rows.iter_mut().enumerate() {
            r[0] = i as f32 * 0.01;
        }
        rows.push(vec![100.0, 100.0]); // far away singleton
        let data = Matrix::from_rows(&rows);
        let labels = dbscan(&data, &DbscanConfig::new(0.5, 3));
        assert_eq!(labels[10], NOISE);
        assert!(labels[..10].iter().all(|&l| l == 0));
    }

    #[test]
    fn eps_too_small_marks_everything_noise() {
        let ds = synthetic::blobs(50, 2, 2, 1.0, 3);
        let labels = dbscan(ds.points(), &DbscanConfig::new(1e-6, 3));
        assert!(labels.iter().all(|&l| l == NOISE));
        assert_eq!(num_clusters(&labels), 0);
    }

    #[test]
    #[should_panic]
    fn invalid_config_panics() {
        let _ = DbscanConfig::new(0.0, 3);
    }
}
