//! k-NN accuracy and recall-vs-candidate-size sweeps.
//!
//! Figures 5 and 6 plot 10-NN accuracy (Eq. 1) against the number of retrieved candidates
//! as the number of probed bins `m′` grows. [`sweep_probes`] runs that sweep for any
//! search procedure expressed as a closure `(query, probes) -> SearchResult`, so the same
//! machinery serves the unsupervised partitioner, every baseline, and the ensembles.

use rayon::prelude::*;
use serde::{Deserialize, Serialize};
use usp_index::SearchResult;
use usp_linalg::{topk, Matrix};

/// One point of a recall-vs-candidates curve.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct SweepPoint {
    /// Number of bins probed.
    pub probes: usize,
    /// Mean candidate-set size over the query set.
    pub mean_candidates: f64,
    /// Mean k-NN accuracy (Eq. 1) over the query set.
    pub recall: f64,
}

/// Mean k-NN accuracy of `results` against the exact ground truth.
pub fn recall_at_k(results: &[Vec<usize>], truth: &[Vec<usize>]) -> f64 {
    assert_eq!(
        results.len(),
        truth.len(),
        "recall_at_k: query count mismatch"
    );
    if results.is_empty() {
        return 0.0;
    }
    let mut total = 0.0;
    for (r, t) in results.iter().zip(truth) {
        total += usp_data::ground_truth::knn_accuracy(r, t);
    }
    total / results.len() as f64
}

/// Runs a probe sweep: for each probe count, every query is answered (in parallel — the
/// embarrassingly parallel online phase) and the mean candidate-set size and mean k-NN
/// accuracy are recorded. Per-query results are merged in query order, so the sweep is
/// deterministic for any thread count.
pub fn sweep_probes(
    queries: &Matrix,
    truth: &[Vec<usize>],
    probe_counts: &[usize],
    search: impl Fn(&[f32], usize) -> SearchResult + Sync,
) -> Vec<SweepPoint> {
    assert_eq!(
        queries.rows(),
        truth.len(),
        "sweep_probes: query/truth mismatch"
    );
    let mut points = Vec::with_capacity(probe_counts.len());
    for &probes in probe_counts {
        let per_query: Vec<(usize, f64)> = (0..queries.rows())
            .into_par_iter()
            .map(|qi| {
                let res = search(queries.row(qi), probes);
                let acc = usp_data::ground_truth::knn_accuracy(&res.ids, &truth[qi]);
                (res.candidates_scanned, acc)
            })
            .collect();
        let candidates: usize = per_query.iter().map(|&(c, _)| c).sum();
        let recall: f64 = per_query.iter().map(|&(_, r)| r).sum();
        let n = queries.rows().max(1) as f64;
        points.push(SweepPoint {
            probes,
            mean_candidates: candidates as f64 / n,
            recall: recall / n,
        });
    }
    points
}

/// Linearly interpolates the candidate-set size at which a sweep reaches `target_recall`.
/// Returns `None` when the sweep never reaches the target.
pub fn candidates_at_recall(points: &[SweepPoint], target_recall: f64) -> Option<f64> {
    let mut sorted: Vec<&SweepPoint> = points.iter().collect();
    // Nan-class comparator: a sweep point with a NaN mean (e.g. a recall curve built
    // from a corrupt run) sorts strictly last instead of panicking the whole report.
    sorted.sort_by(|a, b| topk::nan_class_cmp_f64(a.mean_candidates, b.mean_candidates));
    let mut prev: Option<&SweepPoint> = None;
    for p in sorted {
        if p.recall >= target_recall {
            return Some(match prev {
                Some(q) if p.recall > q.recall => {
                    let t = (target_recall - q.recall) / (p.recall - q.recall);
                    q.mean_candidates + t * (p.mean_candidates - q.mean_candidates)
                }
                _ => p.mean_candidates,
            });
        }
        prev = Some(p);
    }
    None
}

/// Reasonable probe counts for a partition with `bins` bins: a roughly geometric ladder
/// from 1 to `bins`, deduplicated.
pub fn default_probe_ladder(bins: usize) -> Vec<usize> {
    let mut probes = vec![1usize];
    let mut p = 1usize;
    while p < bins {
        p = (p * 2).min(bins);
        probes.push(p);
    }
    // Add a few intermediate steps for smoother curves on small bin counts.
    if bins >= 16 {
        for extra in [3usize, 6, 12] {
            if extra < bins {
                probes.push(extra);
            }
        }
    }
    probes.sort_unstable();
    probes.dedup();
    probes
}

#[cfg(test)]
mod tests {
    use super::*;
    use usp_index::SearchResult;

    #[test]
    fn recall_at_k_averages_per_query_accuracy() {
        let results = vec![vec![1, 2, 3], vec![4, 5, 6]];
        let truth = vec![vec![1, 2, 3], vec![7, 8, 9]];
        assert!((recall_at_k(&results, &truth) - 0.5).abs() < 1e-9);
        assert_eq!(recall_at_k(&[], &[]), 0.0);
    }

    #[test]
    fn sweep_reports_monotone_candidates_for_monotone_search() {
        let queries = Matrix::from_vec(3, 1, vec![0.0, 1.0, 2.0]);
        let truth = vec![vec![0], vec![1], vec![2]];
        let points = sweep_probes(&queries, &truth, &[1, 2, 4], |q, probes| {
            // A fake index: more probes scan more and, with >= 2 probes, find the truth.
            let found = if probes >= 2 {
                vec![q[0] as usize]
            } else {
                vec![99]
            };
            SearchResult::new(found, probes * 10)
        });
        assert_eq!(points.len(), 3);
        assert!(points[0].mean_candidates < points[2].mean_candidates);
        assert_eq!(points[0].recall, 0.0);
        assert_eq!(points[2].recall, 1.0);
    }

    #[test]
    fn interpolation_finds_target_between_points() {
        let points = vec![
            SweepPoint {
                probes: 1,
                mean_candidates: 100.0,
                recall: 0.5,
            },
            SweepPoint {
                probes: 2,
                mean_candidates: 200.0,
                recall: 0.9,
            },
        ];
        let c = candidates_at_recall(&points, 0.7).unwrap();
        assert!((c - 150.0).abs() < 1e-6);
        assert!(candidates_at_recall(&points, 0.95).is_none());
        assert!((candidates_at_recall(&points, 0.5).unwrap() - 100.0).abs() < 1e-6);
    }

    #[test]
    fn interpolation_survives_nan_sweep_points() {
        // A corrupt point (NaN mean) must neither panic the sort (the pre-fix
        // `partial_cmp().unwrap()` did) nor shadow the valid curve: the nan class
        // sorts strictly last, so interpolation over the finite points still works.
        let points = vec![
            SweepPoint {
                probes: 3,
                mean_candidates: f64::NAN,
                recall: 0.2,
            },
            SweepPoint {
                probes: 1,
                mean_candidates: 100.0,
                recall: 0.5,
            },
            SweepPoint {
                probes: 2,
                mean_candidates: 200.0,
                recall: 0.9,
            },
        ];
        let c = candidates_at_recall(&points, 0.7).unwrap();
        assert!((c - 150.0).abs() < 1e-6);
        // An unreached target is still an orderly None, NaN point present or not.
        assert!(candidates_at_recall(&points, 0.95).is_none());
    }

    #[test]
    fn probe_ladder_is_sorted_unique_and_bounded() {
        for bins in [2usize, 16, 256] {
            let ladder = default_probe_ladder(bins);
            assert_eq!(ladder[0], 1);
            assert_eq!(*ladder.last().unwrap(), bins);
            let mut sorted = ladder.clone();
            sorted.sort_unstable();
            sorted.dedup();
            assert_eq!(ladder, sorted);
        }
    }
}
