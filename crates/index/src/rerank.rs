//! Exact re-ranking of an arbitrary candidate id list: the id-gather **reference**.
//!
//! Every search in the workspace scores contiguous rows through the streaming scan
//! ([`crate::stream`]); nothing on a query path gathers rows by id. This function stays
//! as what the streaming scan is tested against — it scores the same `(query, row)`
//! pairs through the same blocked kernel ([`usp_linalg::kernel`]) and selects with the
//! same [`TopK`], so over the same candidate order the two rank identically bit for
//! bit (`scan_bins_matches_gathered_rerank_over_the_same_stream`) — and as the way to
//! rank an id list that is not a run of the index (a test's random-candidates control).

use usp_linalg::{kernel, topk::TopK, Distance, Matrix};

/// Returns the `k` candidate ids closest to the query under `distance`, scanning every
/// candidate exactly once (the `O(c·d)` term of the paper's §4.5 complexity analysis).
pub fn rerank(
    data: &Matrix,
    query: &[f32],
    candidates: &[u32],
    k: usize,
    distance: Distance,
) -> Vec<usize> {
    let n = u32::try_from(candidates.len()).expect("rerank: more than u32::MAX candidates");
    let mut top = TopK::new(k.min(candidates.len()));
    let scorer = kernel::QueryScorer::new(distance, query);
    for (i, &id) in (0..n).zip(candidates) {
        top.push(i, scorer.eval(data.row(id as usize)));
    }
    let ranked = top.into_sorted_indices().into_iter();
    ranked.map(|i| candidates[i] as usize).collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn line(n: usize) -> Matrix {
        Matrix::from_vec(n, 1, (0..n).map(|i| i as f32).collect())
    }

    #[test]
    fn rerank_returns_nearest_of_candidates_only() {
        let data = line(10);
        // Candidates exclude the true nearest neighbour (index 3) of query 3.1.
        let candidates = vec![0u32, 5, 4, 9];
        let got = rerank(&data, &[3.1], &candidates, 2, Distance::SquaredEuclidean);
        assert_eq!(got, vec![4, 5]);
    }

    #[test]
    fn rerank_k_larger_than_candidates() {
        let data = line(4);
        let got = rerank(&data, &[0.0], &[2, 1], 10, Distance::SquaredEuclidean);
        assert_eq!(got, vec![1, 2]);
    }

    #[test]
    fn empty_candidates_give_empty_result() {
        let data = line(3);
        assert!(rerank(&data, &[1.0], &[], 5, Distance::Euclidean).is_empty());
    }
}
