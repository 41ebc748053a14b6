//! K-means clustering as a space partitioner.
//!
//! This is the paper's most important non-learned baseline: "K-means clustering, a simple
//! and prominent approach … used in the implementation of the state-of-the-art ANNS
//! technique ScaNN" (§1). Bins are Voronoi cells of the centroids; bin scores are negative
//! centroid distances, so multi-probing searches the nearest cells first.

use usp_index::Partitioner;
use usp_linalg::Matrix;
use usp_quant::{KMeans, KMeansConfig};

/// A fitted K-means partitioner.
#[derive(Debug, Clone)]
pub struct KMeansPartitioner {
    model: KMeans,
}

impl KMeansPartitioner {
    /// Fits K-means with `bins` clusters to the dataset.
    pub fn fit(data: &Matrix, bins: usize, seed: u64) -> Self {
        let model = KMeans::fit(
            data,
            &KMeansConfig {
                k: bins,
                max_iters: 50,
                tol: 1e-4,
                seed,
            },
        );
        Self { model }
    }

    /// Fits with an explicit k-means configuration.
    pub fn fit_with_config(data: &Matrix, config: &KMeansConfig) -> Self {
        Self {
            model: KMeans::fit(data, config),
        }
    }

    /// The underlying centroid model.
    pub fn kmeans(&self) -> &KMeans {
        &self.model
    }
}

impl Partitioner for KMeansPartitioner {
    fn num_bins(&self) -> usize {
        self.model.k()
    }

    fn bin_scores(&self, query: &[f32]) -> Vec<f32> {
        self.model.scores(query)
    }

    fn assign(&self, query: &[f32]) -> usize {
        self.model.assign(query)
    }

    fn num_parameters(&self) -> usize {
        // Table 2 counts the centroid coordinates as the "parameters" of K-means.
        self.model.centroids.rows() * self.model.centroids.cols()
    }

    fn name(&self) -> String {
        format!("k-means({})", self.model.k())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use usp_index::PartitionIndex;
    use usp_linalg::{rng as lrng, Distance};

    fn blobs(n_per: usize, centers: &[[f32; 2]], seed: u64) -> Matrix {
        let mut rng = lrng::seeded(seed);
        let mut rows = Vec::new();
        for c in centers {
            for _ in 0..n_per {
                rows.push(vec![
                    c[0] + 0.3 * lrng::standard_normal(&mut rng),
                    c[1] + 0.3 * lrng::standard_normal(&mut rng),
                ]);
            }
        }
        Matrix::from_rows(&rows)
    }

    #[test]
    fn partitions_blobs_into_balanced_bins() {
        let data = blobs(50, &[[0., 0.], [10., 0.], [0., 10.], [10., 10.]], 1);
        let p = KMeansPartitioner::fit(&data, 4, 7);
        let idx = PartitionIndex::build(p, &data, Distance::SquaredEuclidean);
        let stats = idx.balance();
        assert_eq!(stats.total, 200);
        assert_eq!(stats.min, 50);
        assert_eq!(stats.max, 50);
    }

    #[test]
    fn queries_probe_nearest_cells_first() {
        let data = blobs(30, &[[0., 0.], [10., 0.]], 2);
        let p = KMeansPartitioner::fit(&data, 2, 3);
        // A query near the first blob ranks that blob's bin first.
        let near_first = [0.5f32, -0.2];
        let ranked = p.rank_bins(&near_first, 2);
        assert_eq!(ranked[0], p.assign(&near_first));
        assert_eq!(p.num_bins(), 2);
    }

    #[test]
    fn parameter_count_is_centroid_volume() {
        let data = blobs(20, &[[0., 0.], [5., 5.]], 3);
        let p = KMeansPartitioner::fit(&data, 2, 1);
        assert_eq!(p.num_parameters(), 2 * 2);
        assert!(p.name().contains("k-means"));
    }

    /// FNV-1a over the little-endian bytes of `words`.
    fn fnv1a(words: impl IntoIterator<Item = u32>) -> u64 {
        let mut hash = 0xcbf2_9ce4_8422_2325u64;
        for byte in words.into_iter().flat_map(u32::to_le_bytes) {
            hash = (hash ^ u64::from(byte)).wrapping_mul(0x0100_0000_01b3);
        }
        hash
    }

    /// Every codebook bit and code of a product quantizer and every bin of a K-means
    /// partition, hashed and compared with a constant recorded before the column kernels
    /// got their AVX2 form. The per-pair oracle tests in `usp-quant` run the same
    /// `squared_euclidean` the kernels are checked against, so a change that moved both
    /// would pass them; this one pins the bits themselves, on any pool size and in debug
    /// and release alike. 256 centroids are eight 32-point blocks; 45 bins leave a
    /// remainder past the last whole block.
    #[test]
    fn quantizer_and_partition_have_the_recorded_bits() {
        let data = usp_data::synthetic::sift_like(1200, 24, 17)
            .points()
            .clone();
        let config = usp_quant::ProductQuantizerConfig {
            max_iters: 12,
            ..usp_quant::ProductQuantizerConfig::standard(3, 256)
        };
        let pq = usp_quant::ProductQuantizer::fit(&data, &config);
        let codebooks = (0..=255u8).flat_map(|c| pq.decode(&[c; 3]));
        let codes = pq.encode_all(&data);
        let p = KMeansPartitioner::fit(&data, 45, 3);
        let bins = (0..data.rows()).map(|i| p.assign(data.row(i)) as u32);
        let hash = fnv1a(
            codebooks
                .map(f32::to_bits)
                .chain(codes.iter().map(|&c| u32::from(c)))
                .chain(bins),
        );
        assert_eq!(
            hash, 0xd4bc_48ac_e72b_ad8f,
            "the quantizer's or the partition's bits moved: {hash:#018x}"
        );
    }

    #[test]
    fn search_recovers_neighbours_within_cell() {
        let data = blobs(40, &[[0., 0.], [20., 20.]], 4);
        let p = KMeansPartitioner::fit(&data, 2, 5);
        let idx = PartitionIndex::build(p, &data, Distance::SquaredEuclidean);
        let res = idx.search(data.row(3), 5, 1);
        assert_eq!(res.candidates_scanned, 40);
        assert!(res.ids.contains(&3));
    }
}
