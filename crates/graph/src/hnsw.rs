//! Hierarchical Navigable Small World graphs (Malkov & Yashunin, 2018).
//!
//! HNSW is one of the end-to-end ANNS baselines in Figure 7 of the paper. This is a
//! from-scratch implementation with the usual knobs: `M` (degree bound), `ef_construction`
//! (beam width during insertion) and `ef` at query time. The searcher reports the number
//! of distance evaluations performed so it can be plotted on the same cost axis as the
//! partitioning methods.

use std::cmp::Ordering;
use std::collections::BinaryHeap;

use rand::rngs::StdRng;
use rand::Rng;
use usp_linalg::kernel::QueryScorer;
use usp_linalg::{rng as lrng, Distance, Matrix};

/// Construction parameters.
#[derive(Debug, Clone)]
pub struct HnswConfig {
    /// Maximum number of links per node on the upper layers (level 0 allows `2 * m`).
    pub m: usize,
    /// Beam width used while inserting points.
    pub ef_construction: usize,
    /// Distance function.
    pub distance: Distance,
    /// RNG seed for level sampling.
    pub seed: u64,
}

impl Default for HnswConfig {
    fn default() -> Self {
        Self {
            m: 16,
            ef_construction: 100,
            distance: Distance::SquaredEuclidean,
            seed: 7,
        }
    }
}

/// Min-heap / max-heap entry over (distance, id).
#[derive(Debug, Clone, Copy, PartialEq)]
struct HeapItem {
    dist: f32,
    id: u32,
}

impl Eq for HeapItem {}
impl PartialOrd for HeapItem {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}
impl Ord for HeapItem {
    fn cmp(&self, other: &Self) -> Ordering {
        usp_linalg::topk::nan_class_cmp(self.dist, other.dist).then_with(|| self.id.cmp(&other.id))
    }
}

/// The HNSW index.
pub struct Hnsw {
    config: HnswConfig,
    data: Matrix,
    /// `neighbors[node][level]` — adjacency lists; `neighbors[node].len() = level(node)+1`.
    neighbors: Vec<Vec<Vec<u32>>>,
    entry: usize,
    max_level: usize,
    level_mult: f64,
}

impl Hnsw {
    /// Builds an index over the rows of `data` by sequential insertion.
    pub fn build(data: &Matrix, config: HnswConfig) -> Self {
        assert!(data.rows() > 0, "Hnsw::build: empty dataset");
        let level_mult = 1.0 / (config.m.max(2) as f64).ln();
        let mut index = Self {
            config,
            data: data.clone(),
            neighbors: Vec::with_capacity(data.rows()),
            entry: 0,
            max_level: 0,
            level_mult,
        };
        let mut rng = lrng::seeded(index.config.seed);
        for i in 0..data.rows() {
            index.insert(i, &mut rng);
        }
        index
    }

    /// Number of indexed points.
    pub fn len(&self) -> usize {
        self.neighbors.len()
    }

    /// True when no points are indexed.
    pub fn is_empty(&self) -> bool {
        self.neighbors.is_empty()
    }

    /// Highest layer currently in use.
    pub fn max_level(&self) -> usize {
        self.max_level
    }

    fn sample_level(&self, rng: &mut StdRng) -> usize {
        let u: f64 = (1.0 - rng.random::<f64>()).max(1e-12);
        ((-u.ln()) * self.level_mult).floor() as usize
    }

    fn insert(&mut self, id: usize, rng: &mut StdRng) {
        let level = self.sample_level(rng);
        let query = self.data.row_to_vec(id);
        self.neighbors.push(vec![Vec::new(); level + 1]);

        if id == 0 {
            self.entry = 0;
            self.max_level = level;
            return;
        }

        let scorer = QueryScorer::new(self.config.distance, &query);
        let mut ep = vec![self.entry as u32];
        // Greedy descent through layers above the new node's level.
        let mut lc = self.max_level;
        while lc > level {
            ep = self
                .search_layer(&scorer, &ep, 1, lc, &mut 0)
                .into_iter()
                .map(|h| h.id)
                .collect();
            if lc == 0 {
                break;
            }
            lc -= 1;
        }

        // Insert links from the node's level down to 0.
        let top = level.min(self.max_level);
        for l in (0..=top).rev() {
            let mut visited_count = 0usize;
            let found = self.search_layer(
                &scorer,
                &ep,
                self.config.ef_construction,
                l,
                &mut visited_count,
            );
            let max_links = if l == 0 {
                self.config.m * 2
            } else {
                self.config.m
            };
            let selected: Vec<u32> = found.iter().take(self.config.m).map(|h| h.id).collect();
            self.neighbors[id][l] = selected.clone();
            for &nbr in &selected {
                let nbr_list = &mut self.neighbors[nbr as usize][l];
                nbr_list.push(id as u32);
                if nbr_list.len() > max_links {
                    // Prune to the closest `max_links` neighbours of `nbr`.
                    let from_nbr =
                        QueryScorer::new(self.config.distance, self.data.row(nbr as usize));
                    let mut with_d: Vec<(f32, u32)> = self.neighbors[nbr as usize][l]
                        .iter()
                        .map(|&x| (from_nbr.eval(self.data.row(x as usize)), x))
                        .collect();
                    with_d.sort_by(|a, b| usp_linalg::topk::nan_class_cmp(a.0, b.0));
                    with_d.truncate(max_links);
                    self.neighbors[nbr as usize][l] = with_d.into_iter().map(|(_, x)| x).collect();
                }
            }
            ep = found.into_iter().map(|h| h.id).collect();
        }

        if level > self.max_level {
            self.max_level = level;
            self.entry = id;
        }
    }

    /// Beam search within one layer. Returns up to `ef` closest items, ascending by
    /// distance; `visited_count` accumulates the number of distance evaluations.
    fn search_layer(
        &self,
        scorer: &QueryScorer<'_>,
        entry_points: &[u32],
        ef: usize,
        level: usize,
        visited_count: &mut usize,
    ) -> Vec<HeapItem> {
        let mut visited = vec![false; self.neighbors.len()];
        // Candidates: min-heap (closest first) emulated with Reverse ordering via negation.
        let mut candidates: BinaryHeap<std::cmp::Reverse<HeapItem>> = BinaryHeap::new();
        // Results: max-heap so the worst kept result is on top.
        let mut results: BinaryHeap<HeapItem> = BinaryHeap::new();

        for &ep in entry_points {
            if (ep as usize) < visited.len() && !visited[ep as usize] {
                visited[ep as usize] = true;
                let d = scorer.eval(self.data.row(ep as usize));
                *visited_count += 1;
                candidates.push(std::cmp::Reverse(HeapItem { dist: d, id: ep }));
                results.push(HeapItem { dist: d, id: ep });
            }
        }

        while let Some(std::cmp::Reverse(current)) = candidates.pop() {
            let worst = results.peek().map(|h| h.dist).unwrap_or(f32::INFINITY);
            if current.dist > worst && results.len() >= ef {
                break;
            }
            let node = current.id as usize;
            if level < self.neighbors[node].len() {
                for &nbr in &self.neighbors[node][level] {
                    let ni = nbr as usize;
                    if visited[ni] {
                        continue;
                    }
                    visited[ni] = true;
                    let d = scorer.eval(self.data.row(ni));
                    *visited_count += 1;
                    let worst = results.peek().map(|h| h.dist).unwrap_or(f32::INFINITY);
                    if results.len() < ef || d < worst {
                        candidates.push(std::cmp::Reverse(HeapItem { dist: d, id: nbr }));
                        results.push(HeapItem { dist: d, id: nbr });
                        if results.len() > ef {
                            results.pop();
                        }
                    }
                }
            }
        }

        let mut out: Vec<HeapItem> = results.into_vec();
        out.sort();
        out
    }

    /// Approximate k-NN search with beam width `ef`, returning ids (closest first) and the
    /// number of distance evaluations performed.
    pub fn search(&self, query: &[f32], k: usize, ef: usize) -> (Vec<usize>, usize) {
        if self.is_empty() {
            return (Vec::new(), 0);
        }
        let scorer = QueryScorer::new(self.config.distance, query);
        let mut visited_count = 0usize;
        let mut ep = vec![self.entry as u32];
        let mut lc = self.max_level;
        while lc > 0 {
            ep = self
                .search_layer(&scorer, &ep, 1, lc, &mut visited_count)
                .into_iter()
                .map(|h| h.id)
                .collect();
            lc -= 1;
        }
        let found = self.search_layer(&scorer, &ep, ef.max(k), 0, &mut visited_count);
        let ids = found.into_iter().take(k).map(|h| h.id as usize).collect();
        (ids, visited_count)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use usp_data::exact_knn;
    use usp_linalg::rng as rngs;

    fn clustered_data(n: usize, d: usize, seed: u64) -> Matrix {
        let mut rng = rngs::seeded(seed);
        let mut m = Matrix::zeros(n, d);
        for i in 0..n {
            let c = (i % 8) as f32 * 10.0;
            for j in 0..d {
                m[(i, j)] = c + rngs::standard_normal(&mut rng);
            }
        }
        m
    }

    #[test]
    fn exact_on_tiny_dataset() {
        let data = Matrix::from_vec(5, 1, vec![0.0, 1.0, 2.0, 3.0, 4.0]);
        let hnsw = Hnsw::build(&data, HnswConfig::default());
        let (ids, visited) = hnsw.search(&[2.2], 3, 10);
        assert_eq!(ids[0], 2);
        assert!(ids.contains(&3) && ids.contains(&1));
        assert!(visited > 0);
    }

    #[test]
    fn high_recall_on_clustered_data() {
        let data = clustered_data(600, 8, 3);
        let hnsw = Hnsw::build(
            &data,
            HnswConfig {
                m: 12,
                ef_construction: 80,
                ..Default::default()
            },
        );
        let queries = clustered_data(20, 8, 99);
        let truth = exact_knn(&data, &queries, 10, Distance::SquaredEuclidean);
        let mut recall_sum = 0.0;
        for qi in 0..queries.rows() {
            let (ids, _) = hnsw.search(queries.row(qi), 10, 64);
            let t: std::collections::HashSet<usize> = truth[qi].iter().copied().collect();
            recall_sum += ids.iter().filter(|i| t.contains(i)).count() as f64 / 10.0;
        }
        let recall = recall_sum / queries.rows() as f64;
        assert!(recall > 0.9, "HNSW recall too low: {recall}");
    }

    #[test]
    fn larger_ef_never_reduces_scanned_or_quality() {
        let data = clustered_data(400, 6, 5);
        let hnsw = Hnsw::build(&data, HnswConfig::default());
        let q = data.row_to_vec(3);
        let (ids_small, visited_small) = hnsw.search(&q, 5, 8);
        let (ids_large, visited_large) = hnsw.search(&q, 5, 128);
        assert!(visited_large >= visited_small);
        // With a large beam the query point itself must be found (distance zero).
        assert_eq!(ids_large[0], 3);
        assert!(!ids_small.is_empty());
    }

    #[test]
    fn degree_bound_respected() {
        let data = clustered_data(300, 4, 11);
        let cfg = HnswConfig {
            m: 8,
            ef_construction: 60,
            ..Default::default()
        };
        let hnsw = Hnsw::build(&data, cfg);
        for node in 0..hnsw.len() {
            for (level, nbrs) in hnsw.neighbors[node].iter().enumerate() {
                let bound = if level == 0 { 16 } else { 8 };
                assert!(
                    nbrs.len() <= bound,
                    "node {node} level {level} degree {}",
                    nbrs.len()
                );
            }
        }
    }

    #[test]
    fn empty_query_path_on_single_point() {
        let data = Matrix::from_vec(1, 2, vec![1.0, 1.0]);
        let hnsw = Hnsw::build(&data, HnswConfig::default());
        let (ids, _) = hnsw.search(&[0.0, 0.0], 3, 10);
        assert_eq!(ids, vec![0]);
    }
}
