//! Product quantization (Jégou et al., 2011) with asymmetric distance computation.
//!
//! The vector space is split into `M` contiguous subspaces; each subspace gets its own
//! small codebook (trained with plain k-means or with the anisotropic loss of
//! [`crate::anisotropic`]), and every data point is represented by one code per subspace.
//! Query-time distances are computed from a per-query lookup table (ADC), which is the
//! sketching speed-up the paper's Figure 7 pipeline relies on.

use rayon::prelude::*;
use usp_index::scoring::CodeQuantizer;
use usp_linalg::kernel::{self, AdcTable};
use usp_linalg::{distance, kernel_columns, Distance, Matrix};

use crate::anisotropic::{self, AnisotropicConfig};
use crate::kmeans::{KMeans, KMeansConfig};

/// Which loss the per-subspace codebooks are trained with.
#[derive(Debug, Clone)]
pub enum CodebookKind {
    /// Plain k-means codebooks (classic PQ).
    Standard,
    /// Score-aware codebooks (ScaNN-style anisotropic quantization).
    Anisotropic(AnisotropicConfig),
}

/// Product-quantizer configuration.
#[derive(Debug, Clone)]
pub struct ProductQuantizerConfig {
    /// Number of subspaces `M` (each point is encoded as `M` bytes).
    pub n_subspaces: usize,
    /// Number of centroids per subspace (≤ 256 so codes fit in a byte).
    pub n_centroids: usize,
    /// k-means iterations per codebook.
    pub max_iters: usize,
    /// Codebook training loss.
    pub codebook: CodebookKind,
    /// RNG seed.
    pub seed: u64,
}

impl ProductQuantizerConfig {
    /// Classic PQ defaults.
    pub fn standard(n_subspaces: usize, n_centroids: usize) -> Self {
        Self {
            n_subspaces,
            n_centroids,
            max_iters: 25,
            codebook: CodebookKind::Standard,
            seed: 42,
        }
    }

    /// ScaNN-style anisotropic PQ.
    pub fn anisotropic(n_subspaces: usize, n_centroids: usize, eta: f32) -> Self {
        Self {
            n_subspaces,
            n_centroids,
            max_iters: 25,
            codebook: CodebookKind::Anisotropic(AnisotropicConfig {
                eta,
                max_iters: 6,
                seed: 42,
            }),
            seed: 42,
        }
    }
}

/// A fitted product quantizer.
#[derive(Debug, Clone)]
pub struct ProductQuantizer {
    /// `(start, len)` of each subspace within the full vector.
    ranges: Vec<(usize, usize)>,
    /// One codebook per subspace, shape `(n_centroids, subspace_len)`.
    codebooks: Vec<Matrix>,
    /// Each codebook transposed, shape `(subspace_len, n_centroids)`, made once by `fit`:
    /// the layout the column kernels of [`usp_linalg::kernel_columns`] read in
    /// `encode_into` and `adc_table`.
    columns: Vec<Matrix>,
    /// η used for encoding when the codebooks are anisotropic (1.0 for standard PQ).
    encode_eta: f32,
    dim: usize,
}

impl ProductQuantizer {
    /// Trains the quantizer on the rows of `data`.
    ///
    /// # Panics
    /// If `config.n_centroids` is not in `1..=256`: a code is one byte per subspace.
    /// Checked here, the one place every config passes through — the fields are public,
    /// so the constructors cannot vouch for it. Also if
    /// `data` has no columns (there is no subspace to give a codebook), and, through
    /// [`KMeans::fit`], if it has no rows or a coordinate that is not finite.
    pub fn fit(data: &Matrix, config: &ProductQuantizerConfig) -> Self {
        assert!(
            (1..=256).contains(&config.n_centroids),
            "codes are stored as bytes; need n_centroids in 1..=256, got {}",
            config.n_centroids
        );
        let d = data.cols();
        assert!(
            d > 0,
            "ProductQuantizer::fit: need data with at least one column, got {} x 0",
            data.rows()
        );
        let m = config.n_subspaces.clamp(1, d);
        // Spread dimensions as evenly as possible: the first `d % m` subspaces get one extra.
        let base = d / m;
        let extra = d % m;
        let mut ranges = Vec::with_capacity(m);
        let mut start = 0usize;
        for s in 0..m {
            let len = base + usize::from(s < extra);
            ranges.push((start, len));
            start += len;
        }

        let encode_eta = match &config.codebook {
            CodebookKind::Standard => 1.0,
            CodebookKind::Anisotropic(a) => a.eta,
        };

        // Stage 1: extract every subspace view into a dense matrix, parallel over
        // rows (each row copy is position-determined, so block boundaries cannot
        // change the result — the thread-count-invariance discipline of the shim).
        let subs: Vec<Matrix> = ranges
            .iter()
            .map(|&(start, len)| {
                let mut sub = Matrix::zeros(data.rows(), len);
                sub.as_mut_slice()
                    .par_chunks_mut(len.max(1))
                    .enumerate()
                    .for_each(|(i, row)| {
                        if len > 0 {
                            row.copy_from_slice(&data.row(i)[start..start + len]);
                        }
                    });
                sub
            })
            .collect();

        // Stage 2: train one codebook per subspace, parallel over subspaces (the
        // trainers parallelise internally too; nested regions run inline on the shim).
        let codebooks: Vec<Matrix> = subs
            .par_iter()
            .enumerate()
            .map(|(s, sub)| match &config.codebook {
                CodebookKind::Standard => {
                    KMeans::fit(
                        sub,
                        &KMeansConfig {
                            k: config.n_centroids,
                            max_iters: config.max_iters,
                            tol: 1e-4,
                            seed: config.seed.wrapping_add(s as u64),
                        },
                    )
                    .centroids
                }
                CodebookKind::Anisotropic(a) => anisotropic::train_codebook(
                    sub,
                    config.n_centroids,
                    &AnisotropicConfig {
                        seed: a.seed.wrapping_add(s as u64),
                        ..a.clone()
                    },
                ),
            })
            .collect();

        Self {
            ranges,
            columns: codebooks.iter().map(Matrix::transpose).collect(),
            codebooks,
            encode_eta,
            dim: d,
        }
    }

    /// Number of subspaces.
    pub fn n_subspaces(&self) -> usize {
        self.ranges.len()
    }

    /// Number of centroids per subspace.
    pub fn n_centroids(&self) -> usize {
        self.codebooks.first().map(Matrix::rows).unwrap_or(0)
    }

    /// Input dimensionality.
    pub fn dim(&self) -> usize {
        self.dim
    }

    /// Encodes a single point into a caller-provided code slice
    /// (`out.len() == n_subspaces`), allocation-free.
    pub fn encode_into(&self, point: &[f32], out: &mut [u8]) {
        assert_eq!(point.len(), self.dim, "encode: dimensionality mismatch");
        assert_eq!(
            out.len(),
            self.n_subspaces(),
            "encode_into: code slice length mismatch"
        );
        let k = self.n_centroids();
        for (s, (slot, &(start, len))) in out.iter_mut().zip(&self.ranges).enumerate() {
            let sub = &point[start..start + len];
            // The anisotropic loss is not a squared distance (it projects the residual on
            // the point), so η > 1 keeps its own per-centroid loop.
            *slot = if self.encode_eta > 1.0 {
                anisotropic::assign(sub, &self.codebooks[s], self.encode_eta) as u8
            } else {
                kernel_columns::nearest_column(sub, self.columns[s].as_slice(), k).0 as u8
            };
        }
    }

    /// Encodes a single point as one code per subspace.
    pub fn encode(&self, point: &[f32]) -> Vec<u8> {
        let mut out = vec![0u8; self.n_subspaces()];
        self.encode_into(point, &mut out);
        out
    }

    /// Encodes every row of a matrix, returning a flat code buffer of stride
    /// [`ProductQuantizer::n_subspaces`]. Parallel over rows with each worker writing
    /// its codes straight into the shared buffer (no per-row allocation); row `i`'s
    /// code is a pure function of row `i`, so the buffer is identical for any thread
    /// count.
    pub fn encode_all(&self, data: &Matrix) -> Vec<u8> {
        let m = self.n_subspaces();
        let mut flat = vec![0u8; data.rows() * m];
        flat.par_chunks_mut(m)
            .enumerate()
            .for_each(|(i, out)| self.encode_into(data.row(i), out));
        flat
    }

    /// Reconstructs the point represented by a code.
    pub fn decode(&self, code: &[u8]) -> Vec<f32> {
        assert_eq!(
            code.len(),
            self.n_subspaces(),
            "decode: code length mismatch"
        );
        let mut out = vec![0.0f32; self.dim];
        for ((&(start, len), cb), &c) in self.ranges.iter().zip(&self.codebooks).zip(code) {
            out[start..start + len].copy_from_slice(cb.row(c as usize));
        }
        out
    }

    /// Builds the per-query ADC lookup table for `metric`
    /// (`n_subspaces * n_centroids` entries per constituent table).
    ///
    /// The squared-Euclidean family stores per-centroid squared subvector distances
    /// (for `Euclidean` the summed value is the *squared* distance — rank-equivalent,
    /// and a two-phase scan's exact re-rank restores true distances); inner product
    /// stores negated dots (smaller = closer, like [`Distance::eval`]); cosine gets
    /// the dual dot/norm² tables of [`AdcTable::Cosine`]. A pure function of
    /// `(metric, query)`, so per-query and per-batch tables agree bit-for-bit.
    pub fn adc_table(&self, metric: Distance, query: &[f32]) -> AdcTable {
        assert_eq!(query.len(), self.dim, "adc_table: dimensionality mismatch");
        let k = self.n_centroids();
        let m = self.n_subspaces();
        match metric {
            Distance::SquaredEuclidean | Distance::Euclidean => {
                let mut table = vec![0.0f32; m * k];
                for ((&(start, len), columns), out) in self
                    .ranges
                    .iter()
                    .zip(&self.columns)
                    .zip(table.chunks_exact_mut(k))
                {
                    kernel_columns::squared_euclidean_to_columns(
                        &query[start..start + len],
                        columns.as_slice(),
                        out,
                    );
                }
                AdcTable::Sum {
                    table,
                    n_centroids: k,
                }
            }
            // Inner-product and cosine entries are `dot`'s four-lane order (the GEMM's
            // arithmetic contract), not a serial chain, so the column kernel would change
            // their bits; they keep one `dot` per centroid.
            Distance::InnerProduct => {
                let mut table = Vec::with_capacity(m * k);
                for (&(start, len), cb) in self.ranges.iter().zip(&self.codebooks) {
                    let sub = &query[start..start + len];
                    for c in 0..k {
                        table.push(distance::negative_dot(sub, cb.row(c)));
                    }
                }
                AdcTable::Sum {
                    table,
                    n_centroids: k,
                }
            }
            Distance::Cosine => {
                let mut dot = Vec::with_capacity(m * k);
                let mut norm2 = Vec::with_capacity(m * k);
                for (&(start, len), cb) in self.ranges.iter().zip(&self.codebooks) {
                    let sub = &query[start..start + len];
                    for c in 0..k {
                        let row = cb.row(c);
                        dot.push(-distance::negative_dot(sub, row));
                        norm2.push(-distance::negative_dot(row, row));
                    }
                }
                AdcTable::Cosine {
                    dot,
                    norm2,
                    n_centroids: k,
                    query_norm: distance::norm(query),
                }
            }
        }
    }

    /// Approximate distance between the query (via its ADC table) and a code,
    /// evaluated by the workspace's single blocked lookup kernel
    /// ([`usp_linalg::kernel::adc_eval`]).
    #[inline]
    pub fn adc_distance(&self, table: &AdcTable, code: &[u8]) -> f32 {
        kernel::adc_eval(table, code)
    }

    /// Mean squared reconstruction error over a dataset (a quantization-quality metric).
    pub fn reconstruction_error(&self, data: &Matrix) -> f64 {
        (0..data.rows())
            .into_par_iter()
            .map(|i| {
                let rec = self.decode(&self.encode(data.row(i)));
                distance::squared_euclidean(data.row(i), &rec) as f64
            })
            .sum::<f64>()
            / data.rows().max(1) as f64
    }
}

/// Plugs the product quantizer into [`usp_index::PartitionIndex`]'s compressed
/// scoring mode (`usp-index` talks to quantizers through this trait because it sits
/// below `usp-quant` in the crate graph).
impl CodeQuantizer for ProductQuantizer {
    fn dim(&self) -> usize {
        ProductQuantizer::dim(self)
    }

    fn code_len(&self) -> usize {
        self.n_subspaces()
    }

    fn encode_into(&self, point: &[f32], out: &mut [u8]) {
        ProductQuantizer::encode_into(self, point, out)
    }

    fn adc_table(&self, distance: Distance, query: &[f32]) -> AdcTable {
        ProductQuantizer::adc_table(self, distance, query)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use usp_linalg::rng as lrng;

    fn clustered(n: usize, d: usize, seed: u64) -> Matrix {
        let mut rng = lrng::seeded(seed);
        let mut m = Matrix::zeros(n, d);
        for i in 0..n {
            let c = (i % 4) as f32 * 5.0;
            for j in 0..d {
                m[(i, j)] = c + lrng::standard_normal(&mut rng);
            }
        }
        m
    }

    #[test]
    fn subspace_ranges_cover_all_dimensions() {
        let data = clustered(100, 10, 1);
        let pq = ProductQuantizer::fit(&data, &ProductQuantizerConfig::standard(3, 8));
        assert_eq!(pq.n_subspaces(), 3);
        let total: usize = pq.ranges.iter().map(|&(_, l)| l).sum();
        assert_eq!(total, 10);
        assert_eq!(pq.ranges[0], (0, 4)); // 10 = 4 + 3 + 3
        assert_eq!(pq.dim(), 10);
    }

    #[test]
    fn encode_decode_reduces_error_vs_random_code() {
        let data = clustered(200, 8, 2);
        let pq = ProductQuantizer::fit(&data, &ProductQuantizerConfig::standard(4, 16));
        let err = pq.reconstruction_error(&data);
        // Compare against decoding a fixed arbitrary code for every point.
        let silly: f64 = (0..data.rows())
            .map(|i| {
                let rec = pq.decode(&[0u8; 4]);
                distance::squared_euclidean(data.row(i), &rec) as f64
            })
            .sum::<f64>()
            / data.rows() as f64;
        assert!(
            err < silly * 0.5,
            "PQ reconstruction error {err} not much better than {silly}"
        );
    }

    #[test]
    fn adc_distance_matches_decoded_distance() {
        let data = clustered(150, 6, 3);
        let pq = ProductQuantizer::fit(&data, &ProductQuantizerConfig::standard(3, 8));
        let q = data.row_to_vec(7);
        let table = pq.adc_table(Distance::SquaredEuclidean, &q);
        for i in (0..data.rows()).step_by(17) {
            let code = pq.encode(data.row(i));
            let adc = pq.adc_distance(&table, &code);
            let explicit = distance::squared_euclidean(&q, &pq.decode(&code));
            assert!(
                (adc - explicit).abs() < 1e-3,
                "ADC {adc} vs decoded {explicit}"
            );
        }
    }

    #[test]
    fn metric_aware_tables_match_decoded_metric() {
        // Per metric, the ADC value of a code must equal the metric's scalar value
        // against the decoded (reconstructed) point, up to summation order.
        let data = clustered(150, 8, 7);
        let pq = ProductQuantizer::fit(&data, &ProductQuantizerConfig::standard(4, 16));
        let q = data.row_to_vec(11);
        for metric in [
            Distance::SquaredEuclidean,
            Distance::InnerProduct,
            Distance::Cosine,
        ] {
            let table = pq.adc_table(metric, &q);
            for i in (0..data.rows()).step_by(13) {
                let code = pq.encode(data.row(i));
                let adc = pq.adc_distance(&table, &code);
                let rec = pq.decode(&code);
                let explicit = match metric {
                    Distance::Cosine => distance::cosine(&q, &rec),
                    Distance::InnerProduct => distance::negative_dot(&q, &rec),
                    _ => distance::squared_euclidean(&q, &rec),
                };
                let tol = 1e-3 * explicit.abs().max(1.0);
                assert!(
                    (adc - explicit).abs() < tol,
                    "{}: ADC {adc} vs decoded {explicit}",
                    metric.name()
                );
            }
        }
        // Euclidean's table sums *squared* distances (rank-equivalent).
        let te = pq.adc_table(Distance::Euclidean, &q);
        let ts = pq.adc_table(Distance::SquaredEuclidean, &q);
        let code = pq.encode(data.row(29));
        assert_eq!(
            pq.adc_distance(&te, &code).to_bits(),
            pq.adc_distance(&ts, &code).to_bits()
        );
    }

    #[test]
    #[should_panic(expected = "need n_centroids in 1..=256, got 300")]
    fn fit_rejects_a_config_whose_codes_would_wrap() {
        // Hand-built past the constructors: before the check moved
        // into `fit` this trained 300-row codebooks and stored `best as u8`.
        let config = ProductQuantizerConfig {
            n_centroids: 300,
            ..ProductQuantizerConfig::standard(2, 8)
        };
        ProductQuantizer::fit(&clustered(400, 4, 3), &config);
    }

    #[test]
    #[should_panic(expected = "need data with at least one column, got 50 x 0")]
    fn fit_refuses_data_without_columns() {
        // This used to panic inside `usize::clamp` ("min > max").
        ProductQuantizer::fit(
            &Matrix::zeros(50, 0),
            &ProductQuantizerConfig::standard(4, 8),
        );
    }

    #[test]
    fn encode_into_matches_encode_and_encode_all() {
        let data = clustered(90, 8, 9);
        let pq = ProductQuantizer::fit(&data, &ProductQuantizerConfig::standard(4, 8));
        let all = pq.encode_all(&data);
        assert_eq!(all.len(), 90 * 4);
        let mut buf = [0u8; 4];
        for i in 0..data.rows() {
            pq.encode_into(data.row(i), &mut buf);
            assert_eq!(&buf[..], &all[i * 4..(i + 1) * 4]);
            assert_eq!(pq.encode(data.row(i)), &buf[..]);
        }
    }

    #[test]
    fn encoding_is_a_pure_per_row_function_under_permutation() {
        // Compaction copies the base codes and encodes the inserts through the
        // *shared* quantizer, and a fresh build over the permuted survivors must
        // get bit-identical codes for the same rows. That only holds if encoding
        // is a pure function of the row alone — no hidden per-call or per-batch
        // state. Pin it: encoding a row-permuted copy of the data equals gathering
        // the original per-row codes through the permutation.
        let data = clustered(60, 8, 11);
        let pq = ProductQuantizer::fit(&data, &ProductQuantizerConfig::standard(4, 8));
        let original = pq.encode_all(&data);
        // A fixed non-trivial permutation (reversal interleaved with a stride).
        let perm: Vec<usize> = (0..60).map(|j| (j * 7 + 3) % 60).collect();
        let mut permuted = Matrix::zeros(60, 8);
        for (j, &src) in perm.iter().enumerate() {
            permuted.row_mut(j).copy_from_slice(data.row(src));
        }
        let re = pq.encode_all(&permuted);
        for (j, &src) in perm.iter().enumerate() {
            assert_eq!(
                &re[j * 4..(j + 1) * 4],
                &original[src * 4..(src + 1) * 4],
                "row {j} (source {src}) re-encoded differently"
            );
            // And repeated single-row calls agree with both.
            assert_eq!(
                pq.encode(permuted.row(j)),
                &original[src * 4..(src + 1) * 4]
            );
        }
    }

    /// `encode_into` for η ≤ 1 as it was before the column kernels: one
    /// `squared_euclidean` per centroid, the first minimum kept.
    fn encode_per_pair(pq: &ProductQuantizer, point: &[f32]) -> Vec<u8> {
        let mut code = Vec::new();
        for (&(start, len), cb) in pq.ranges.iter().zip(&pq.codebooks) {
            let (mut best, mut best_d) = (0usize, f32::INFINITY);
            for c in 0..cb.rows() {
                let d = distance::squared_euclidean(&point[start..start + len], cb.row(c));
                if d < best_d {
                    best_d = d;
                    best = c;
                }
            }
            code.push(best as u8);
        }
        code
    }

    /// The squared-Euclidean `adc_table` as it was: one `squared_euclidean` per entry.
    fn adc_table_per_pair(pq: &ProductQuantizer, query: &[f32]) -> Vec<f32> {
        let mut table = Vec::new();
        for (&(start, len), cb) in pq.ranges.iter().zip(&pq.codebooks) {
            for c in 0..cb.rows() {
                table.push(distance::squared_euclidean(
                    &query[start..start + len],
                    cb.row(c),
                ));
            }
        }
        table
    }

    #[test]
    fn codes_and_tables_match_the_per_pair_loops_bit_for_bit() {
        let bits = |v: &[f32]| v.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
        // 10 dimensions over 3 subspaces (4 + 3 + 3), 200 centroids: every block
        // remainder of the kernel. Coarse rounding leaves fewer distinct subvectors than
        // centroids, so codebooks hold duplicate centroids and encoding meets exact ties.
        let mut data = clustered(700, 10, 21);
        data.map_inplace(|v| (v / 3.0).round());
        let mut queries = clustered(40, 10, 22);
        queries[(3, 1)] = f32::NAN;
        queries[(5, 9)] = f32::INFINITY;
        for threads in [1, 4] {
            rayon::with_num_threads(threads, || {
                let pq = ProductQuantizer::fit(&data, &ProductQuantizerConfig::standard(3, 200));
                let codes = pq.encode_all(&data);
                for (i, code) in codes.chunks_exact(3).enumerate() {
                    assert_eq!(code, encode_per_pair(&pq, data.row(i)), "row {i}");
                }
                for i in 0..queries.rows() {
                    let q = queries.row(i);
                    assert_eq!(pq.encode(q), encode_per_pair(&pq, q), "query {i}");
                    for metric in [Distance::SquaredEuclidean, Distance::Euclidean] {
                        let AdcTable::Sum { table, .. } = pq.adc_table(metric, q) else {
                            panic!("{} builds a sum table", metric.name());
                        };
                        assert_eq!(bits(&table), bits(&adc_table_per_pair(&pq, q)));
                    }
                }
            });
        }
    }

    #[test]
    fn adc_ranks_close_points_before_far_points() {
        let data = clustered(400, 8, 4);
        let pq = ProductQuantizer::fit(&data, &ProductQuantizerConfig::standard(4, 32));
        let codes = pq.encode_all(&data);
        let q = data.row_to_vec(0);
        let table = pq.adc_table(Distance::SquaredEuclidean, &q);
        // Compare mean ADC distance of the 20 exact-nearest points vs 20 exact-farthest.
        let mut exact: Vec<(usize, f32)> = (0..data.rows())
            .map(|i| (i, distance::squared_euclidean(&q, data.row(i))))
            .collect();
        exact.sort_by(|a, b| usp_linalg::topk::nan_class_cmp(a.1, b.1));
        let near: f32 = exact[..20]
            .iter()
            .map(|&(i, _)| pq.adc_distance(&table, &codes[i * 4..(i + 1) * 4]))
            .sum();
        let far: f32 = exact[exact.len() - 20..]
            .iter()
            .map(|&(i, _)| pq.adc_distance(&table, &codes[i * 4..(i + 1) * 4]))
            .sum();
        assert!(
            near < far,
            "ADC does not separate near ({near}) from far ({far})"
        );
    }

    #[test]
    fn anisotropic_codebooks_also_roundtrip() {
        let data = clustered(120, 8, 5);
        let pq = ProductQuantizer::fit(&data, &ProductQuantizerConfig::anisotropic(4, 8, 4.0));
        let code = pq.encode(data.row(3));
        assert_eq!(code.len(), 4);
        assert!(code.iter().all(|&c| (c as usize) < 8));
        let rec = pq.decode(&code);
        assert_eq!(rec.len(), 8);
        let err = pq.reconstruction_error(&data);
        assert!(err.is_finite() && err >= 0.0);
    }

    #[test]
    fn more_centroids_reduce_reconstruction_error() {
        let data = clustered(300, 8, 6);
        let small = ProductQuantizer::fit(&data, &ProductQuantizerConfig::standard(4, 4));
        let large = ProductQuantizer::fit(&data, &ProductQuantizerConfig::standard(4, 64));
        assert!(large.reconstruction_error(&data) < small.reconstruction_error(&data));
    }

    /// FNV-1a over the little-endian bytes of `words`.
    fn fnv1a(words: impl IntoIterator<Item = u32>) -> u64 {
        let mut hash = 0xcbf2_9ce4_8422_2325u64;
        for byte in words.into_iter().flat_map(u32::to_le_bytes) {
            hash = (hash ^ u64::from(byte)).wrapping_mul(0x0100_0000_01b3);
        }
        hash
    }

    /// Every ADC score, each query's survivor set and every final answer of a fixed
    /// compressed index, hashed and compared with a constant recorded before the ADC
    /// lookup got its AVX2 form. It covers `Sum` tables (squared-Euclidean, Euclidean,
    /// inner product) and `Cosine` tables, the served 8 × 256 quantizer and a 5 × 17 one,
    /// and a mutated index, so answers mix survivors with tombstones and codeless
    /// (membin) rows. The kernel's proptests compare its two forms with each other; this
    /// pins the bits themselves, on any pool size and in debug and release alike.
    #[test]
    fn compressed_pass_has_the_recorded_bits() {
        use std::sync::Arc;
        use usp_index::partitioner::RoundRobinPartitioner;
        use usp_index::{PartitionIndex, Partitioner, Scoring};
        use usp_linalg::kernel::{SegmentedScan, TileKernel};

        let data = usp_data::synthetic::sift_like(1500, 32, 29)
            .points()
            .clone();
        let queries = usp_data::synthetic::sift_like(40, 32, 30).points().clone();
        let (k, probes, shortlist) = (10, 3, 40);
        let mut words = Vec::new();
        for (m, n_centroids) in [(8, 256), (5, 17)] {
            let config = ProductQuantizerConfig {
                max_iters: 8,
                ..ProductQuantizerConfig::standard(m, n_centroids)
            };
            let pq = Arc::new(ProductQuantizer::fit(&data, &config));
            for distance in [
                Distance::SquaredEuclidean,
                Distance::Euclidean,
                Distance::InnerProduct,
                Distance::Cosine,
            ] {
                let idx = PartitionIndex::build(RoundRobinPartitioner::new(6), &data, distance)
                    .with_scoring(Scoring::compressed(pq.clone(), shortlist));
                for i in 0..16 {
                    idx.insert(queries.row(24 + i));
                }
                for id in (0..data.rows()).step_by(37) {
                    idx.delete(id);
                }
                for qi in 0..24 {
                    let q = queries.row(qi);
                    let table = pq.adc_table(distance, q);
                    for b in 0..idx.num_bins() {
                        let codes = idx.bin_codes(b).expect("a compressed index");
                        let mut scores = vec![0.0f32; codes.len() / m];
                        (&table).score_tile(codes, m, &mut scores);
                        words.extend(scores.iter().map(|s| s.to_bits()));
                    }
                    let bins = idx.partitioner().rank_bins(q, probes);
                    {
                        let delta = idx.delta();
                        let runs = idx.candidate_runs(&bins, Some(&delta), None);
                        let coded = runs.iter().filter(|r| r.codes.is_some());
                        let keep = shortlist.min(coded.map(|r| r.len()).sum());
                        let mut scan = SegmentedScan::adc(&table, m, keep);
                        for (ri, run) in runs.iter().enumerate() {
                            if let Some(codes) = run.codes {
                                scan.scan_segment(codes, run.len(), ri);
                            }
                        }
                        for (ri, off, score) in scan.into_kept() {
                            words.extend([runs[ri].ids[off], score.to_bits()]);
                        }
                    }
                    let answer = idx.search(q, k, probes);
                    words.extend(answer.ids.iter().map(|&id| id as u32));
                    words.extend([
                        answer.candidates_scanned as u32,
                        answer.compressed_scanned as u32,
                    ]);
                }
            }
        }
        let hash = fnv1a(words);
        assert_eq!(
            hash, 0x3cbe_19b4_fb52_fac0,
            "an ADC score, a survivor set or an answer moved: {hash:#018x}"
        );
    }
}
