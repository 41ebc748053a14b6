//! The brute-force tile walker: every row of one matrix scored against every row of
//! another, or of itself, a block pair at a time, into one [`TopK`] per row. It is the
//! exact ground truth (`usp_data::exact_knn`, [`nearest_rows`]) and the paper's only
//! pre-processing step, the k′-NN matrix (`usp_data::KnnMatrix::build`,
//! [`nearest_other_rows`]).
//!
//! Rows go in blocks of [`WALK_BLOCK`], so the block being scored stays in cache while a
//! group of rows is scored against it, instead of every row streaming the whole dataset
//! from further out. Scores come from [`QueryScorer`]'s tile kernel and nothing else;
//! every row's selector is keyed by global row position. [`TopK`]'s order is a total
//! order on (key, position), so the kept set does not depend on the order a row's
//! candidates arrive in, or on the thread count: the answers are those of one
//! [`super::SegmentedScan`] per row over the same rows.
//!
//! A k′-NN matrix scores each unordered pair **once** when the metric is bitwise
//! symmetric ([`symmetric`]) and pushes the score into both rows' selectors. Block pairs
//! run in rounds of disjoint pairs (a round-robin schedule), one pool region per round,
//! so no selector is shared and no lock is taken.

use std::mem::take;

use rayon::prelude::*;

use super::{QueryScorer, TileKernel};
use crate::distance::Distance;
use crate::matrix::Matrix;
use crate::topk::TopK;

/// Rows per block of the walker: 16 KB at 64-d and 32 KB at 128-d, so the block a group
/// of rows is scored against stays in a 48 KB L1. (On a 2-vCPU x86-64 host, 20 000 ×
/// 128-d: 64 rows 1.06–1.09 s, 128 rows 1.28–1.39 s, 32 rows 1.15 s; at 8 000 × 64-d all
/// three read about 0.11 s.)
pub const WALK_BLOCK: usize = 64;

/// Queries per pool task of [`nearest_rows`]: each base block is read into cache once
/// per group and scored from there by every query of it. Small, so that a few dozen
/// queries still make several tasks.
const QUERY_GROUP: usize = 16;

/// Whether `distance(a, b)` has the bits of `distance(b, a)` for every pair, which is
/// what lets [`nearest_other_rows`] score a pair once for both rows. The Euclidean family
/// is (`(a − b)²` is `(b − a)²` exactly), and so is inner product (products commute),
/// because both directions put element `t` in the same lane and combine the lanes
/// alike. Cosine is not: the query's norm is `dot_blocked`'s 8-lane sum, but a row's
/// comes from the fused 4-lane pass, so the two directions can differ in the last bit.
fn symmetric(distance: Distance) -> bool {
    !matches!(distance, Distance::Cosine)
}

/// One scorer per row of `rows`.
fn scorers(distance: Distance, rows: &Matrix) -> Vec<QueryScorer<'_>> {
    (0..rows.rows())
        .map(|i| QueryScorer::new(distance, rows.row(i)))
        .collect()
}

/// Selectors for `n` rows.
fn selectors(n: usize, k: usize) -> Vec<TopK> {
    (0..n).map(|_| TopK::new(k)).collect()
}

/// The positions a walk hands out must fit the selector's `u32` (checked once).
fn assert_positions_fit(n: usize, walk: &str) {
    assert!(
        u32::try_from(n).is_ok(),
        "{walk}: {n} rows do not fit the selector's u32 positions"
    );
}

/// Scores `count` contiguous rows (`rows`, global positions `first, first + 1, …`)
/// against `scorer`'s query, at most [`WALK_BLOCK`] of them, and pushes each score into
/// `top` under the row's position. `mirror`, when given, is the scored rows' own
/// selectors and the query's position: each score goes there too.
fn score_run(
    scorer: &QueryScorer<'_>,
    rows: &[f32],
    count: usize,
    first: usize,
    top: &mut TopK,
    mirror: Option<(&mut [TopK], u32)>,
) {
    let mut buf = [0.0f32; WALK_BLOCK];
    let scores = &mut buf[..count];
    scorer.score_tile(rows, scorer.query.len(), scores);
    for (position, &score) in (first as u32..).zip(scores.iter()) {
        top.push(position, score);
    }
    if let Some((tops, query)) = mirror {
        for (t, &score) in tops.iter_mut().zip(scores.iter()) {
            t.push(query, score);
        }
    }
}

/// The `k` nearest rows of `base` to every row of `queries`: one selector per query,
/// positions the base's row ids. Queries go in groups of a few per pool task; each group
/// walks the base a [`WALK_BLOCK`] at a time.
///
/// # Panics
/// If the dimensions differ, or `base` has more rows than a `u32` position can name.
pub fn nearest_rows(distance: Distance, base: &Matrix, queries: &Matrix, k: usize) -> Vec<TopK> {
    let (n, dim) = base.shape();
    assert_eq!(queries.cols(), dim, "nearest_rows: queries are not {dim}-d");
    assert_positions_fit(n, "nearest_rows");
    let scorers = scorers(distance, queries);
    let mut tops = selectors(queries.rows(), k);
    tops.par_chunks_mut(QUERY_GROUP)
        .enumerate()
        .for_each(|(g, tops)| {
            let group = &scorers[g * QUERY_GROUP..][..tops.len()];
            for first in (0..n).step_by(WALK_BLOCK) {
                let count = WALK_BLOCK.min(n - first);
                let rows = &base.as_slice()[first * dim..(first + count) * dim];
                for (scorer, top) in group.iter().zip(tops.iter_mut()) {
                    score_run(scorer, rows, count, first, top, None);
                }
            }
        });
    tops
}

/// The `k` nearest *other* rows of every row of `points`: one selector per row, self
/// left out by position (a duplicate of a row is a neighbour of it, and under inner
/// product a row need not be its own nearest).
///
/// Every block is first walked against itself, all blocks in one pool region; then
/// every pair of distinct blocks, in round-robin rounds of disjoint pairs, one pool
/// region per round. Where the metric is bitwise symmetric (not cosine) each unordered
/// pair of points is scored once, for both of their selectors.
///
/// # Panics
/// If `points` has more rows than a `u32` position can name.
pub fn nearest_other_rows(distance: Distance, points: &Matrix, k: usize) -> Vec<TopK> {
    let n = points.rows();
    assert_positions_fit(n, "nearest_other_rows");
    let walk = Walk {
        scorers: scorers(distance, points),
        rows: points.as_slice(),
        dim: points.cols(),
        symmetric: symmetric(distance),
    };
    let mut blocks: Vec<Vec<TopK>> = (0..n)
        .step_by(WALK_BLOCK)
        .map(|first| selectors(WALK_BLOCK.min(n - first), k))
        .collect();
    blocks
        .par_iter_mut()
        .enumerate()
        .for_each(|(b, tops)| walk.within(b * WALK_BLOCK, tops));
    for round in round_robin(blocks.len()) {
        let mut pairs: Vec<_> = round
            .into_iter()
            .map(|(a, b)| {
                let (a_tops, b_tops) = (take(&mut blocks[a]), take(&mut blocks[b]));
                (a, a_tops, b, b_tops)
            })
            .collect();
        pairs.par_iter_mut().for_each(|(a, a_tops, b, b_tops)| {
            walk.between(*a * WALK_BLOCK, a_tops, *b * WALK_BLOCK, b_tops)
        });
        for (a, a_tops, b, b_tops) in pairs {
            (blocks[a], blocks[b]) = (a_tops, b_tops);
        }
    }
    blocks.into_iter().flatten().collect()
}

/// What every block pair of a k′-NN walk reads.
struct Walk<'a> {
    /// One per row of the dataset.
    scorers: Vec<QueryScorer<'a>>,
    rows: &'a [f32],
    dim: usize,
    symmetric: bool,
}

impl Walk<'_> {
    /// The `count` rows from global row `first`.
    fn rows(&self, first: usize, count: usize) -> &[f32] {
        &self.rows[first * self.dim..(first + count) * self.dim]
    }

    /// Every pair inside the block at row `first`, whose selectors are `tops`: once per
    /// pair for a symmetric metric (each row against the rows after it), else each row
    /// against the rows before and after it.
    fn within(&self, first: usize, tops: &mut [TopK]) {
        let len = tops.len();
        for i in 0..len {
            let scorer = &self.scorers[first + i];
            let after = self.rows(first + i + 1, len - i - 1);
            let (head, tail) = tops.split_at_mut(i + 1);
            let top = &mut head[i];
            if self.symmetric {
                let mirror = Some((tail, (first + i) as u32));
                score_run(scorer, after, len - i - 1, first + i + 1, top, mirror);
            } else {
                score_run(scorer, self.rows(first, i), i, first, top, None);
                score_run(scorer, after, len - i - 1, first + i + 1, top, None);
            }
        }
    }

    /// Every pair across the blocks at rows `a` and `b`: each row of `a` against block
    /// `b`, and for an asymmetric metric each row of `b` against block `a` as well.
    fn between(&self, a: usize, a_tops: &mut [TopK], b: usize, b_tops: &mut [TopK]) {
        let (a_len, b_len) = (a_tops.len(), b_tops.len());
        let (a_rows, b_rows) = (self.rows(a, a_len), self.rows(b, b_len));
        for (i, top) in a_tops.iter_mut().enumerate() {
            let mirror = if self.symmetric {
                Some((&mut *b_tops, (a + i) as u32))
            } else {
                None
            };
            score_run(&self.scorers[a + i], b_rows, b_len, b, top, mirror);
        }
        if !self.symmetric {
            for (j, top) in b_tops.iter_mut().enumerate() {
                score_run(&self.scorers[b + j], a_rows, a_len, a, top, None);
            }
        }
    }
}

/// The circle method: `m` blocks (plus a phantom when `m` is odd) in rounds of disjoint
/// pairs, every unordered pair of distinct blocks in exactly one round. Slot 0 stays
/// put and the others rotate; a block drawn against the phantom sits the round out.
fn round_robin(m: usize) -> impl Iterator<Item = Vec<(usize, usize)>> {
    let slots = m + m % 2;
    let at = move |round: usize, slot: usize| match slot {
        0 => 0,
        _ => (slot - 1 + round) % (slots - 1) + 1,
    };
    (0..slots.saturating_sub(1)).map(move |round| {
        (0..slots / 2)
            .map(|s| (at(round, s), at(round, slots - 1 - s)))
            .filter(|&(a, b)| a < m && b < m)
            .collect()
    })
}

#[cfg(test)]
mod tests {
    use super::super::{Backend, ALL_DISTANCES};
    use super::*;

    #[test]
    fn round_robin_pairs_every_two_blocks_once_in_disjoint_rounds() {
        for m in 0..=13 {
            let mut seen = vec![vec![0u32; m]; m];
            for round in round_robin(m) {
                let mut busy = vec![false; m];
                for (a, b) in round {
                    assert!(a != b, "m={m}: block {a} paired with itself");
                    assert!(!busy[a] && !busy[b], "m={m}: a block twice in one round");
                    (busy[a], busy[b]) = (true, true);
                    seen[a.min(b)][a.max(b)] += 1;
                }
            }
            for a in 0..m {
                for b in a + 1..m {
                    assert_eq!(seen[a][b], 1, "m={m}: blocks {a} and {b}");
                }
            }
        }
    }

    /// The walker scores a pair once for both rows exactly when `symmetric` says so: the
    /// Euclidean family and inner product give `d(a, b)` and `d(b, a)` the same bits on
    /// every backend this host has, over values seeded with NaN, ±∞ and ±0.0, and cosine
    /// does not, so it must keep scoring both directions. A kernel change that breaks a
    /// symmetric metric's symmetry fails here before it changes a k′-NN matrix.
    #[test]
    fn symmetric_says_which_metrics_score_alike_in_both_directions() {
        let mut rng = crate::rng::seeded(27);
        let mut backends = vec![Backend::Portable];
        if Backend::detect() != Backend::Portable {
            backends.push(Backend::detect());
        }
        let specials = [f32::NAN, f32::INFINITY, f32::NEG_INFINITY, 0.0, -0.0];
        let same = |x: f32, y: f32| x.to_bits() == y.to_bits() || (x.is_nan() && y.is_nan());
        for d in ALL_DISTANCES {
            let mut differing = 0;
            for case in 0..900 {
                let dim = [0, 1, 3, 7, 8, 9, 17, 64, 100][case % 9];
                let mut a = crate::rng::normal_vector(&mut rng, dim);
                let b = crate::rng::normal_vector(&mut rng, dim);
                if case % 5 == 0 && dim > 0 {
                    a[case % dim] = specials[case / 5 % specials.len()];
                }
                for &backend in &backends {
                    let ab = QueryScorer::with_backend(d, &a, backend).eval(&b);
                    let ba = QueryScorer::with_backend(d, &b, backend).eval(&a);
                    if !same(ab, ba) {
                        assert!(
                            !symmetric(d),
                            "{} is declared symmetric, but dim {dim} on {}: d(a, b) = {ab:?}, d(b, a) = {ba:?}",
                            d.name(),
                            backend.name()
                        );
                        differing += 1;
                    }
                }
            }
            if !symmetric(d) {
                assert!(
                    differing > 0,
                    "{} never differed: it could be scored once",
                    d.name()
                );
            }
        }
    }
}
