//! Blocked distance kernels: the single scoring source of truth for the online phase.
//!
//! The exact re-rank is the `O(c·d)` term of the paper's §4.5 complexity analysis, and
//! in a served index it is the hottest loop in the system. The scalar
//! [`Distance::eval`] closures walk one lane at a time, so the whole scan is serialized
//! behind one chain of dependent adds; the kernels here split the inner loop across
//! **multiple independent accumulators** (8-wide, or dual 4-wide for cosine's fused
//! dot+norm pass), then combine the lanes in one **fixed pairwise order**.
//!
//! That arithmetic — which element lands in which lane, a separate `mul` and `add` per
//! term, the combine order — is the contract; the instructions are not. On an x86-64
//! host with AVX2 ([`Backend::detect`], observed when a scorer is built, never per
//! row) the same lanes are `__m256` registers and the combine is an `hadd` tree
//! (the `avx2` submodule), four rows per query-chunk load. The portable functions in this
//! file are what every other host runs and the oracle the AVX2 path is proptested
//! against, **bit for bit**. (One carve-out: when a distance is NaN, *which* NaN is
//! unspecified on either path — every selection canonicalises NaN, so no answer can
//! depend on it.)
//!
//! Multi-accumulator summation changes float rounding, so blocked and scalar results
//! can differ in the last bits. That makes the kernel a *policy*, not just an
//! optimisation: every online scoring path (`PartitionIndex::scan_bins`, the candidate
//! re-rank, the serving engine's per-query scan) must route through
//! [`eval`]/[`SegmentedScan`] and nothing else, so that any two paths comparing
//! distances compare **identical bits**. The equivalence suites (searcher ≡ engine ≡
//! wire) stay green by construction because both sides call the same kernel; the
//! proptests at the bottom pin the blocked-vs-scalar contract instead (≤1e-5 relative
//! value agreement, identical ordering on exactly-representable inputs, NaN/±inf rows
//! ranking exactly as the scalar path ranks them).

use crate::distance::Distance;
pub use crate::kernel_backend::Backend;
use crate::topk::TopK;

#[cfg(target_arch = "x86_64")]
mod avx2;
mod walk;

pub use walk::{nearest_other_rows, nearest_rows, WALK_BLOCK};

/// Lane count of the blocked accumulators.
const LANES: usize = 8;

/// Candidates scored per stack tile: a scan fills a tile with distances in one
/// branch-free loop (one [`TileKernel::score_tile`] call: one backend or table
/// dispatch), then selects from it.
const TILE: usize = 256;

/// Fixed pairwise lane combine — the summation-order contract documented in
/// DESIGN.md §2.2. Changing this order changes result bits everywhere at once.
#[inline(always)]
fn combine(acc: [f32; LANES]) -> f32 {
    ((acc[0] + acc[1]) + (acc[2] + acc[3])) + ((acc[4] + acc[5]) + (acc[6] + acc[7]))
}

/// Blocked squared Euclidean distance: 8 independent difference-square accumulators.
#[inline]
pub fn squared_euclidean_blocked(a: &[f32], b: &[f32]) -> f32 {
    assert_eq!(
        a.len(),
        b.len(),
        "squared_euclidean_blocked: lengths differ"
    );
    let mut acc = [0.0f32; LANES];
    let chunks = a.len() / LANES;
    for c in 0..chunks {
        let ac = &a[c * LANES..c * LANES + LANES];
        let bc = &b[c * LANES..c * LANES + LANES];
        for l in 0..LANES {
            let d = ac[l] - bc[l];
            acc[l] += d * d;
        }
    }
    for i in chunks * LANES..a.len() {
        let d = a[i] - b[i];
        acc[i - chunks * LANES] += d * d;
    }
    combine(acc)
}

/// Blocked dot product: 8 independent product accumulators.
#[inline]
pub fn dot_blocked(a: &[f32], b: &[f32]) -> f32 {
    assert_eq!(a.len(), b.len(), "dot_blocked: lengths differ");
    let mut acc = [0.0f32; LANES];
    let chunks = a.len() / LANES;
    for c in 0..chunks {
        let ac = &a[c * LANES..c * LANES + LANES];
        let bc = &b[c * LANES..c * LANES + LANES];
        for l in 0..LANES {
            acc[l] += ac[l] * bc[l];
        }
    }
    for i in chunks * LANES..a.len() {
        acc[i - chunks * LANES] += a[i] * b[i];
    }
    combine(acc)
}

/// Fused `(dot(a, b), dot(b, b))` in one pass over `b`, with dual 4-wide accumulators
/// (8 live registers total). This is cosine's row kernel: the row is streamed once for
/// both its projection on the query and its own norm.
#[inline]
fn dot_and_self_blocked(a: &[f32], b: &[f32]) -> (f32, f32) {
    assert_eq!(a.len(), b.len(), "dot_and_self_blocked: lengths differ");
    const W: usize = 4;
    let mut acc_ab = [0.0f32; W];
    let mut acc_bb = [0.0f32; W];
    let chunks = a.len() / W;
    for c in 0..chunks {
        let ac = &a[c * W..c * W + W];
        let bc = &b[c * W..c * W + W];
        for l in 0..W {
            acc_ab[l] += ac[l] * bc[l];
            acc_bb[l] += bc[l] * bc[l];
        }
    }
    for i in chunks * W..a.len() {
        acc_ab[i - chunks * W] += a[i] * b[i];
        acc_bb[i - chunks * W] += b[i] * b[i];
    }
    (
        (acc_ab[0] + acc_ab[1]) + (acc_ab[2] + acc_ab[3]),
        (acc_bb[0] + acc_bb[1]) + (acc_bb[2] + acc_bb[3]),
    )
}

/// Cosine distance from the query's precomputed norm and a row's fused
/// `(dot(q, r), dot(r, r))` (zero norms are maximally distant, matching
/// [`crate::distance::cosine`]).
#[inline]
fn cosine_from_parts(query_norm: f32, ab: f32, bb: f32) -> f32 {
    let nr = bb.sqrt();
    if query_norm == 0.0 || nr == 0.0 {
        return 1.0;
    }
    1.0 - ab / (query_norm * nr)
}

/// The query-side precomputation a scan can hoist: only cosine needs one (the query's
/// blocked norm); every other metric is stateless per pair.
#[inline]
fn query_norm_for(distance: Distance, query: &[f32]) -> f32 {
    match distance {
        Distance::Cosine => dot_blocked(query, query).sqrt(),
        _ => 0.0,
    }
}

/// A per-query scorer: the query borrow plus what a scan can hoist out of its row loop
/// (cosine's query norm, the detected [`Backend`]), so scanning many rows against one
/// query pays the query-side work once instead of per row. [`eval`] and [`SegmentedScan`]
/// are thin wrappers over this, so all three produce **identical bits** for the same
/// `(query, row)` pair.
#[derive(Debug, Clone, Copy)]
pub struct QueryScorer<'a> {
    distance: Distance,
    query: &'a [f32],
    query_norm: f32,
    backend: Backend,
}

impl<'a> QueryScorer<'a> {
    /// Hoists the query-side precomputation for `distance`.
    pub fn new(distance: Distance, query: &'a [f32]) -> Self {
        Self::with_backend(distance, query, Backend::detect())
    }

    fn with_backend(distance: Distance, query: &'a [f32], backend: Backend) -> Self {
        Self {
            distance,
            query,
            query_norm: query_norm_for(distance, query),
            backend,
        }
    }

    /// Blocked evaluation of one row against the held query.
    ///
    /// Same contract as [`Distance::eval`] (smaller is closer, NaN poisons,
    /// zero-norm cosine is maximally distant) but computed with the
    /// multi-accumulator kernels.
    ///
    /// # Panics
    /// If `row` is not as long as the query.
    #[inline]
    pub fn eval(&self, row: &[f32]) -> f32 {
        let mut out = [0.0];
        self.eval_rows(row, &mut out);
        out[0]
    }

    /// The distances to four rows anywhere in memory — a re-rank's survivors, gathered
    /// from their runs — with the bits [`Self::eval`] gives each: on an AVX2 host the
    /// four share each query-chunk load, as four contiguous rows of a tile do.
    ///
    /// # Panics
    /// If a row is not as long as the query.
    #[inline]
    pub fn eval4(&self, rows: [&[f32]; 4]) -> [f32; 4] {
        let dim = self.query.len();
        for row in rows {
            assert_eq!(
                row.len(),
                dim,
                "QueryScorer: a {}-float row against the {dim}-d query",
                row.len()
            );
        }
        match self.backend {
            Backend::Portable => rows.map(|row| self.eval_portable(row)),
            #[cfg(target_arch = "x86_64")]
            Backend::Avx2 => {
                let (d, qn, q) = (self.distance, self.query_norm, self.query.as_ptr());
                // SAFETY: `Avx2` is only ever built by `Backend::detect` on a host that
                // reports the feature; the query and every row hold `dim` floats
                // (asserted above).
                unsafe { avx2::score4(d, qn, q, rows.map(<[f32]>::as_ptr), dim) }
            }
        }
    }

    /// `out[i]` = the distance to row `i` of the row-major block `rows`.
    ///
    /// The one length check of a scan: everything below it, the raw-pointer AVX2 loop
    /// included, relies on `rows.len() == out.len() * query.len()` and nothing else.
    fn eval_rows(&self, rows: &[f32], out: &mut [f32]) {
        let dim = self.query.len();
        assert_eq!(
            rows.len(),
            out.len() * dim,
            "QueryScorer: {} floats is not {} rows as long as the {dim}-d query",
            rows.len(),
            out.len()
        );
        match self.backend {
            Backend::Portable => {
                if dim == 0 {
                    out.fill(self.eval_portable(&[]));
                    return;
                }
                for (o, row) in out.iter_mut().zip(rows.chunks_exact(dim)) {
                    *o = self.eval_portable(row);
                }
            }
            #[cfg(target_arch = "x86_64")]
            Backend::Avx2 => {
                let (d, qn, q) = (self.distance, self.query_norm, self.query.as_ptr());
                // SAFETY: `Avx2` is only ever built by `Backend::detect` on a host that
                // reports the feature; `query` holds `dim` floats and `rows` holds
                // `out.len() * dim` (asserted above).
                unsafe { avx2::score_rows(d, qn, q, rows.as_ptr(), dim, out) }
            }
        }
    }

    #[inline]
    fn eval_portable(&self, row: &[f32]) -> f32 {
        match self.distance {
            Distance::SquaredEuclidean => squared_euclidean_blocked(self.query, row),
            Distance::Euclidean => squared_euclidean_blocked(self.query, row).sqrt(),
            Distance::InnerProduct => -dot_blocked(self.query, row),
            Distance::Cosine => {
                let (ab, bb) = dot_and_self_blocked(self.query, row);
                cosine_from_parts(self.query_norm, ab, bb)
            }
        }
    }
}

/// Blocked evaluation of one `(query, row)` pair — [`QueryScorer`] for a single pair.
/// Loops evaluating many rows against one query should hoist the scorer instead.
#[inline]
pub fn eval(distance: Distance, query: &[f32], row: &[f32]) -> f32 {
    QueryScorer::new(distance, query).eval(row)
}

/// What a [`SegmentedScan`] streams: an algorithm that scores a tile of contiguous
/// items — `f32` rows under a [`QueryScorer`], product codes under an [`AdcTable`].
pub trait TileKernel {
    /// What an item is made of: `f32` coordinates or `u8` code bytes.
    type Elem;

    /// `out[i]` = the score (smaller is closer) of item `i` of `items`, which holds
    /// `out.len()` contiguous items of `unit` elements each.
    fn score_tile(&self, items: &[Self::Elem], unit: usize, out: &mut [f32]);
}

impl TileKernel for QueryScorer<'_> {
    type Elem = f32;

    #[inline]
    fn score_tile(&self, rows: &[f32], _dim: usize, out: &mut [f32]) {
        self.eval_rows(rows, out);
    }
}

/// The one tile loop: scores `count` items a tile at a time into a stack buffer, then
/// offers the tile to `top` under positions `first, first + 1, …`. The scoring loop
/// stays a branch-free stream and the selection's unpredictable branches stall nothing
/// but themselves; [`TopK::push`] drops a score above its bound in one comparison.
/// Score bits and push order are those of a naive per-item score + push loop.
fn scan_tiles<K: TileKernel>(
    kernel: &K,
    items: &[K::Elem],
    unit: usize,
    count: usize,
    first: u32,
    top: &mut TopK,
) {
    let mut scores = [0.0f32; TILE];
    for start in (0..count).step_by(TILE) {
        let scores = &mut scores[..TILE.min(count - start)];
        let tile = &items[start * unit..(start + scores.len()) * unit];
        kernel.score_tile(tile, unit, scores);
        for (position, &score) in (first + start as u32..).zip(scores.iter()) {
            top.push(position, score);
        }
    }
}

/// The one candidate scan of the workspace: stream contiguous blocks of items in
/// stream order, each tagged with a caller-side base, and read the best `k` back
/// already resolved to `(segment base, offset within segment, score)`.
///
/// Over a [`QueryScorer`] it is the exact scan — `PartitionIndex::scan_bins` tags
/// segments with their run; over an `&`[`AdcTable`] it is a compressed first pass over
/// codes. (Brute force over a whole dataset is not a stream of segments but a walk over
/// block pairs, [`nearest_rows`] / [`nearest_other_rows`], on the same tile kernel.) The subtle stream-position bookkeeping (segment starts
/// recorded during the scan, winners mapped back by binary search) lives here once. No
/// score vector is materialised: the selector consumes a tile as the kernel produces
/// it, so a pass is one read of the items plus `O(k)` state. Stream positions are
/// assigned in scan order and the order is [`TopK`]'s — ascending score, NaN last, ties
/// by ascending position — so the winners are exactly the selection a materialised
/// [`crate::topk::smallest_k_by`] over the concatenated stream would make.
///
/// Zero-element items are handled (every metric's empty-row distance — 0 for the
/// Euclidean family, 1 for cosine — is pushed `count` times), which is why
/// [`Self::scan_segment`] takes an explicit item count.
pub struct SegmentedScan<K> {
    kernel: K,
    /// Elements per item: the rows' dimension, or the codes' length in bytes.
    unit: usize,
    top: TopK,
    /// `(stream start, caller base)` per non-empty scanned segment; stream starts
    /// strictly increase, which the winner lookup relies on.
    segments: Vec<(usize, usize)>,
    pos: usize,
}

impl<'a> SegmentedScan<QueryScorer<'a>> {
    /// An exact scan against `query` keeping the best `k` of every row streamed.
    ///
    /// # Panics
    /// If `query` is not `dim` long.
    pub fn new(distance: Distance, query: &'a [f32], dim: usize, k: usize) -> Self {
        assert_eq!(query.len(), dim, "SegmentedScan: query is not {dim}-d");
        Self::over(QueryScorer::new(distance, query), dim, k)
    }
}

impl<'a> SegmentedScan<&'a AdcTable> {
    /// A compressed scan against `table` over codes of `code_len` bytes, keeping the
    /// best `k` streamed.
    ///
    /// # Panics
    /// If `code_len` is zero.
    pub fn adc(table: &'a AdcTable, code_len: usize, k: usize) -> Self {
        assert!(code_len > 0, "SegmentedScan: zero-length codes");
        Self::over(table, code_len, k)
    }
}

impl<K: TileKernel> SegmentedScan<K> {
    fn over(kernel: K, unit: usize, k: usize) -> Self {
        Self {
            kernel,
            unit,
            top: TopK::new(k),
            segments: Vec::new(),
            pos: 0,
        }
    }

    /// Makes room for `n` more segments at once. A caller that knows how many it will
    /// stream (a dirty bin is one segment per live run) says so here, and the
    /// bookkeeping is one allocation instead of a `realloc` every doubling.
    pub fn reserve_segments(&mut self, n: usize) {
        self.segments.reserve_exact(n);
    }

    /// Streams the next `count` contiguous items (`items.len() == count * unit`) as
    /// one segment tagged `base`.
    ///
    /// # Panics
    /// If `items` is not `count` items, or the stream outgrows the `u32` positions the
    /// selector packs (checked here, once per segment, never per push).
    pub fn scan_segment(&mut self, items: &[K::Elem], count: usize, base: usize) {
        assert_eq!(
            items.len(),
            count * self.unit,
            "scan_segment: {} elements is not {count} items of {}",
            items.len(),
            self.unit
        );
        if count == 0 {
            return;
        }
        let end = self.pos + count;
        assert!(
            u32::try_from(end).is_ok(),
            "SegmentedScan: stream position {end} does not fit the selector's u32"
        );
        self.segments.push((self.pos, base));
        let first = self.pos as u32;
        scan_tiles(&self.kernel, items, self.unit, count, first, &mut self.top);
        self.pos = end;
    }

    /// Total items streamed so far.
    pub fn scanned(&self) -> usize {
        self.pos
    }

    /// The best `k` as `(segment base, offset within segment, score)`, best first.
    pub fn into_winners(self) -> Vec<(usize, usize, f32)> {
        resolve(&self.segments, self.top.into_sorted())
    }

    /// The best `k` as a *set*: `(segment base, offset within segment, score)` in
    /// **stream order**, not by score. A pass whose caller orders the survivors itself
    /// (a compressed first pass re-ranks exactly, with ties broken like an exact scan
    /// over the same stream) would only sort a by-score order away again.
    pub fn into_kept(self) -> Vec<(usize, usize, f32)> {
        resolve(&self.segments, self.top.into_kept())
    }
}

/// Maps stream positions back to `(segment base, offset within segment)`.
fn resolve(segments: &[(usize, usize)], picked: Vec<(u32, f32)>) -> Vec<(usize, usize, f32)> {
    let locate = |(pos, score): (u32, f32)| {
        let pos = pos as usize;
        let si = segments.partition_point(|&(start, _)| start <= pos) - 1;
        let (stream_start, base) = segments[si];
        (base, pos - stream_start, score)
    };
    picked.into_iter().map(locate).collect()
}

/// Splits a tombstone mask into maximal `(start, len)` runs of live (non-deleted)
/// rows, truncated so the runs cover at most `cap` live rows in total.
///
/// This is the segmentation step of a tombstone-aware candidate scan: each yielded
/// run is a contiguous row block that can be streamed through
/// [`SegmentedScan::scan_segment`] (rows or codes) unchanged, so deleted
/// rows never enter selection and the live stream keeps the positional tie-order of a
/// scan over a dataset that never contained them. The final run may be cut short by
/// `cap` (budgeted scans stop mid-bin); `cap == usize::MAX` means "all live rows".
///
/// The runs are yielded, not collected: a dirty scan calls this once per probed block
/// of every query, and a vector grown push by push there is a chain of `realloc`s on
/// the hot path (see `PartitionIndex::candidate_runs`).
pub fn live_runs(deleted: &[bool], cap: usize) -> impl Iterator<Item = (usize, usize)> + '_ {
    let (mut i, mut remaining) = (0, cap);
    std::iter::from_fn(move || {
        while i < deleted.len() && deleted[i] {
            i += 1;
        }
        if i == deleted.len() || remaining == 0 {
            return None;
        }
        let start = i;
        while i < deleted.len() && !deleted[i] && i - start < remaining {
            i += 1;
        }
        remaining -= i - start;
        Some((start, i - start))
    })
}

/// Unroll width of the ADC lookup accumulation (one code byte per lane).
const ADC_LANES: usize = 4;

/// Blocked sum of one lookup per subspace: `Σ_s table[s * n_centroids + code[s]]`,
/// accumulated over [`ADC_LANES`] independent lanes and combined in a fixed pairwise
/// order — the compressed-domain analogue of the blocked row kernels above, and the
/// same policy: every ADC scoring path must produce these bits. The portable form of
/// the lookup and the oracle of its AVX2 form, which keeps these four accumulators per
/// code in the lanes of four `__m256`s.
#[inline]
fn lut_sum(table: &[f32], n_centroids: usize, code: &[u8]) -> f32 {
    let mut acc = [0.0f32; ADC_LANES];
    let chunks = code.len() / ADC_LANES;
    for c in 0..chunks {
        let cc = &code[c * ADC_LANES..c * ADC_LANES + ADC_LANES];
        for l in 0..ADC_LANES {
            acc[l] += table[(c * ADC_LANES + l) * n_centroids + cc[l] as usize];
        }
    }
    for s in chunks * ADC_LANES..code.len() {
        acc[s - chunks * ADC_LANES] += table[s * n_centroids + code[s] as usize];
    }
    (acc[0] + acc[1]) + (acc[2] + acc[3])
}

/// A per-query ADC (asymmetric distance computation) lookup table: for every subspace
/// of a product code, the precomputed contribution of each centroid, so scoring a code
/// is one table lookup per byte instead of a float-vector kernel.
///
/// The variant encodes how the metric decomposes over subspaces. The squared-Euclidean
/// family and inner product are a single per-subspace sum ([`AdcTable::Sum`] — for
/// `Euclidean` the sum is the *squared* distance, which ranks identically, and the
/// exact re-rank restores true distances). Cosine does not decompose into one sum, but
/// both of its ingredients do: `dot(q, x̂) = Σ_s dot(q_s, x̂_s)` and
/// `|x̂|² = Σ_s |x̂_s|²`, so [`AdcTable::Cosine`] carries two tables and finishes with
/// the cosine formula (zero norms maximally distant, matching the exact kernel).
#[derive(Debug, Clone)]
pub enum AdcTable {
    /// One additive table: entry `s * n_centroids + c` is subspace `s`'s contribution
    /// of centroid `c` (squared distance, or negated dot for inner product).
    Sum {
        /// `n_subspaces * n_centroids` contributions, subspace-major.
        table: Vec<f32>,
        /// Stride between subspaces.
        n_centroids: usize,
    },
    /// Dual tables for cosine: per-centroid query dot and squared norm.
    Cosine {
        /// `dot[s * n_centroids + c] = dot(query_s, centroid_c)`.
        dot: Vec<f32>,
        /// `norm2[s * n_centroids + c] = |centroid_c|²`.
        norm2: Vec<f32>,
        /// Stride between subspaces.
        n_centroids: usize,
        /// Hoisted `|query|` (the blocked-kernel bits).
        query_norm: f32,
    },
}

impl AdcTable {
    /// Approximate distance of one code (smaller is closer, same conventions as the
    /// exact kernels: cosine with any zero norm is maximally distant at 1.0).
    ///
    /// # Panics
    /// If the code is not one byte per subspace of the table, or a byte names no
    /// centroid.
    #[inline]
    pub fn eval(&self, code: &[u8]) -> f32 {
        self.check(code, code.len());
        self.eval_portable(code)
    }

    /// [`Self::eval`] past the check: the portable form, the oracle.
    #[inline]
    fn eval_portable(&self, code: &[u8]) -> f32 {
        match self {
            AdcTable::Sum { table, n_centroids } => lut_sum(table, *n_centroids, code),
            AdcTable::Cosine {
                dot,
                norm2,
                n_centroids,
                query_norm,
            } => {
                let ab = lut_sum(dot, *n_centroids, code);
                let bb = lut_sum(norm2, *n_centroids, code);
                cosine_from_parts(*query_norm, ab, bb)
            }
        }
    }

    /// Refuses codes this table cannot score, naming the shape: each of `codes` must be
    /// one byte per subspace of the table, and each byte must name a centroid. Without
    /// it a short code scores a prefix of the subspaces and a byte past `n_centroids`
    /// reads the next subspace's entry — or, in the AVX2 gather, memory past the table.
    /// Once per tile: the largest byte is one vectorised pass over the tile, skipped
    /// when every byte names a centroid (256 of them).
    #[inline]
    fn check(&self, codes: &[u8], code_len: usize) {
        let (n_centroids, entries, norm_entries) = match self {
            AdcTable::Sum { table, n_centroids } => (*n_centroids, table.len(), table.len()),
            AdcTable::Cosine {
                dot,
                norm2,
                n_centroids,
                ..
            } => (*n_centroids, dot.len(), norm2.len()),
        };
        if code_len.checked_mul(n_centroids) != Some(entries) || norm_entries != entries {
            refuse_shape(code_len, n_centroids, entries, norm_entries);
        }
        if n_centroids <= usize::from(u8::MAX) {
            if let Some(max) = codes.iter().copied().max() {
                if usize::from(max) >= n_centroids {
                    refuse_byte(max, n_centroids);
                }
            }
        }
    }

    /// `out[i]` = the score of code `i` of `codes` (`code_len` bytes each) on `backend`.
    ///
    /// The one check of a tile ([`Self::check`]): everything below it, the AVX2
    /// gathers included, relies on it and on `codes.len() == out.len() * code_len`.
    fn score_codes(&self, codes: &[u8], code_len: usize, out: &mut [f32], backend: Backend) {
        assert_eq!(
            codes.len(),
            out.len() * code_len,
            "AdcTable: {} bytes is not {} codes of {code_len}",
            codes.len(),
            out.len()
        );
        self.check(codes, code_len);
        // The AVX2 form scores whole groups of eight codes; the rest run portably.
        let done = match backend {
            Backend::Portable => 0,
            // Its gathers address a group's code bytes with i32 offsets.
            #[cfg(target_arch = "x86_64")]
            Backend::Avx2 if code_len > i32::MAX as usize / 8 => 0,
            #[cfg(target_arch = "x86_64")]
            Backend::Avx2 => {
                let full = out.len() & !7;
                // SAFETY: `Avx2` is only ever built by `Backend::detect` on a host that
                // reports the feature. `codes` holds `full * code_len` bytes and more
                // (asserted above), and by `check` every table holds `code_len *
                // n_centroids` entries and every byte is below `n_centroids`, so each
                // gathered entry is in its table; `8 * code_len` fits an i32.
                unsafe {
                    match self {
                        AdcTable::Sum { table, n_centroids } => avx2::adc_sums(
                            table.as_ptr(),
                            *n_centroids,
                            codes.as_ptr(),
                            code_len,
                            &mut out[..full],
                        ),
                        AdcTable::Cosine {
                            dot,
                            norm2,
                            n_centroids,
                            query_norm,
                        } => avx2::adc_cosines(
                            [dot.as_ptr(), norm2.as_ptr()],
                            *n_centroids,
                            *query_norm,
                            codes.as_ptr(),
                            code_len,
                            &mut out[..full],
                        ),
                    }
                }
                full
            }
        };
        let code = |i: usize| &codes[i * code_len..(i + 1) * code_len];
        match self {
            AdcTable::Sum { table, n_centroids } => {
                for (i, d) in out.iter_mut().enumerate().skip(done) {
                    *d = lut_sum(table, *n_centroids, code(i));
                }
            }
            cosine => {
                for (i, d) in out.iter_mut().enumerate().skip(done) {
                    *d = cosine.eval_portable(code(i));
                }
            }
        }
    }
}

/// [`AdcTable::check`]'s refusal of a table shape, out of the checked path.
#[cold]
#[inline(never)]
fn refuse_shape(code_len: usize, n_centroids: usize, entries: usize, norm_entries: usize) -> ! {
    assert_eq!(
        entries, norm_entries,
        "AdcTable::Cosine: {entries} dot entries but {norm_entries} norm entries"
    );
    panic!("AdcTable: {code_len}-byte codes against {entries} entries of {n_centroids} centroids per subspace");
}

/// [`AdcTable::check`]'s refusal of a code byte, out of the checked path.
#[cold]
#[inline(never)]
fn refuse_byte(byte: u8, n_centroids: usize) -> ! {
    panic!("AdcTable: code byte {byte} names no centroid of the {n_centroids} per subspace");
}

/// Blocked ADC evaluation of one code against a per-query table — the single
/// compressed-domain scoring implementation every ADC path routes through.
#[inline]
pub fn adc_eval(table: &AdcTable, code: &[u8]) -> f32 {
    table.eval(code)
}

impl TileKernel for &AdcTable {
    type Elem = u8;

    /// The table is checked and its variant matched once per tile, not per code; on an
    /// AVX2 host each lane of a `__m256` scores one code, eight codes a step.
    ///
    /// # Panics
    /// As [`AdcTable::eval`], and if `codes` is not `out.len()` codes.
    #[inline]
    fn score_tile(&self, codes: &[u8], code_len: usize, out: &mut [f32]) {
        self.score_codes(codes, code_len, out, Backend::detect());
    }
}

#[cfg(test)]
const ALL_DISTANCES: [Distance; 4] = [
    Distance::SquaredEuclidean,
    Distance::Euclidean,
    Distance::InnerProduct,
    Distance::Cosine,
];

#[cfg(test)]
mod tests {
    use super::*;
    use crate::topk;

    /// The tile loop alone, with the argument checks a caller outside this module gets
    /// from [`SegmentedScan`]: streams `rows` into `out` under position `base + row`.
    pub(super) fn scan_block(
        distance: Distance,
        query: &[f32],
        rows: &[f32],
        dim: usize,
        base: usize,
        out: &mut TopK,
    ) {
        assert!(dim > 0, "scan_block: zero-dimensional rows");
        assert_eq!(
            rows.len() % dim,
            0,
            "scan_block: block length {} is not a multiple of dim {}",
            rows.len(),
            dim
        );
        assert_eq!(query.len(), dim, "scan_block: query is not {dim}-d");
        let scorer = QueryScorer::new(distance, query);
        scan_tiles(&scorer, rows, dim, rows.len() / dim, base as u32, out);
    }

    fn rows_matrix(n: usize, dim: usize, seed: u64) -> Vec<f32> {
        crate::rng::normal_vector(&mut crate::rng::seeded(seed), n * dim)
    }

    #[test]
    fn blocked_matches_scalar_within_tolerance() {
        for dim in [1, 3, 7, 8, 9, 16, 24, 31] {
            let q = rows_matrix(1, dim, 11);
            let rows = rows_matrix(5, dim, dim as u64 + 1);
            for d in ALL_DISTANCES {
                for r in rows.chunks_exact(dim) {
                    let blocked = eval(d, &q, r);
                    let scalar = d.eval(&q, r);
                    let tol = 1e-5 * scalar.abs().max(1.0);
                    assert!(
                        (blocked - scalar).abs() <= tol,
                        "{} dim={dim}: blocked {blocked} vs scalar {scalar}",
                        d.name()
                    );
                }
            }
        }
    }

    #[test]
    fn zero_norm_cosine_is_maximally_distant() {
        let q = vec![0.0f32; 12];
        let r = vec![1.0f32; 12];
        assert_eq!(eval(Distance::Cosine, &q, &r), 1.0);
        assert_eq!(eval(Distance::Cosine, &r, &q), 1.0);
    }

    #[test]
    fn distance_to_self_is_zero() {
        let v = rows_matrix(1, 17, 3);
        assert_eq!(eval(Distance::SquaredEuclidean, &v, &v), 0.0);
        assert_eq!(eval(Distance::Euclidean, &v, &v), 0.0);
        assert!(eval(Distance::Cosine, &v, &v).abs() < 1e-6);
    }

    #[test]
    fn scan_block_equals_per_pair_eval_plus_selection() {
        // The fused scan must reproduce exactly: eval every row, then smallest_k_by —
        // within one tile of the scan and across several.
        let dim = 13;
        let q = rows_matrix(1, dim, 5);
        for n in [40, 2 * TILE + 88] {
            let rows = rows_matrix(n, dim, 6);
            for d in ALL_DISTANCES {
                let mut top = TopK::new(7);
                scan_block(d, &q, &rows, dim, 0, &mut top);
                let fused = top.into_sorted_indices();
                let reference =
                    topk::smallest_k_by(n, 7, |i| eval(d, &q, &rows[i * dim..(i + 1) * dim]));
                assert_eq!(fused, reference, "{} over {n} rows", d.name());
            }
        }
    }

    #[test]
    fn scan_block_base_offsets_concatenate_segments() {
        // Scanning two segments with stream bases equals one scan of the concatenation.
        let dim = 6;
        let q = rows_matrix(1, dim, 9);
        let rows = rows_matrix(30, dim, 10);
        let split = 11 * dim;
        for d in ALL_DISTANCES {
            let mut whole = TopK::new(5);
            scan_block(d, &q, &rows, dim, 0, &mut whole);
            let mut parts = TopK::new(5);
            scan_block(d, &q, &rows[..split], dim, 0, &mut parts);
            scan_block(d, &q, &rows[split..], dim, 11, &mut parts);
            assert_eq!(whole.into_sorted(), parts.into_sorted(), "{}", d.name());
        }
    }

    #[test]
    fn segmented_scan_matches_single_block_scan() {
        // Splitting a stream into tagged segments must select exactly what one
        // scan_block over the concatenation selects, with winners resolved to
        // (base, offset) instead of raw stream positions.
        let dim = 5;
        let q = rows_matrix(1, dim, 31);
        let rows = rows_matrix(24, dim, 32);
        for d in ALL_DISTANCES {
            let mut whole = TopK::new(6);
            scan_block(d, &q, &rows, dim, 0, &mut whole);
            let reference: Vec<(usize, f32)> = whole
                .into_sorted()
                .into_iter()
                .map(|(i, d)| (i as usize, d))
                .collect();

            let mut scan = SegmentedScan::new(d, &q, dim, 6);
            // Segments of 10 / 0 / 14 rows, tagged with their first row index.
            scan.scan_segment(&rows[..10 * dim], 10, 0);
            scan.scan_segment(&[], 0, 777); // empty segments leave no trace
            scan.scan_segment(&rows[10 * dim..], 14, 10);
            assert_eq!(scan.scanned(), 24);
            let winners: Vec<(usize, f32)> = scan
                .into_winners()
                .into_iter()
                .map(|(base, off, dist)| (base + off, dist))
                .collect();
            assert_eq!(winners, reference, "{}", d.name());
        }
    }

    #[test]
    fn segmented_scan_handles_zero_dimensional_rows() {
        // A 0-d dataset has nothing to scan, but selection must still be total:
        // every row scores the metric's empty-row distance and ties break in stream
        // order (the pre-kernel gather path's behaviour).
        let mut scan = SegmentedScan::new(Distance::SquaredEuclidean, &[], 0, 3);
        scan.scan_segment(&[], 5, 100);
        assert_eq!(scan.scanned(), 5);
        assert_eq!(
            scan.into_winners(),
            vec![(100, 0, 0.0), (100, 1, 0.0), (100, 2, 0.0)]
        );
        let mut scan = SegmentedScan::new(Distance::Cosine, &[], 0, 2);
        scan.scan_segment(&[], 3, 0);
        assert_eq!(scan.into_winners(), vec![(0, 0, 1.0), (0, 1, 1.0)]);
    }

    /// A deterministic `Sum` table plus codes for the ADC tests.
    fn sum_table(n_subspaces: usize, n_centroids: usize, seed: u64) -> AdcTable {
        let table =
            crate::rng::normal_vector(&mut crate::rng::seeded(seed), n_subspaces * n_centroids);
        AdcTable::Sum { table, n_centroids }
    }

    fn codes_for(n: usize, code_len: usize, n_centroids: usize, seed: u64) -> Vec<u8> {
        (0..n * code_len)
            .map(|i| {
                (((i as u64)
                    .wrapping_mul(6364136223846793005)
                    .wrapping_add(seed)
                    >> 33)
                    % n_centroids as u64) as u8
            })
            .collect()
    }

    #[test]
    fn adc_eval_matches_naive_lookup_sum() {
        for m in [1, 2, 3, 4, 5, 7, 8, 13] {
            let k = 16;
            let table = sum_table(m, k, m as u64);
            let codes = codes_for(6, m, k, 99);
            let raw = match &table {
                AdcTable::Sum { table, .. } => table.clone(),
                _ => unreachable!(),
            };
            for code in codes.chunks_exact(m) {
                // Naive left-to-right sum in f64: the blocked sum only reorders the
                // same additions, so it must agree tightly.
                let naive: f64 = code
                    .iter()
                    .enumerate()
                    .map(|(s, &c)| raw[s * k + c as usize] as f64)
                    .sum();
                let blocked = adc_eval(&table, code);
                assert!(
                    (blocked as f64 - naive).abs() <= 1e-5 * naive.abs().max(1.0),
                    "m={m}: blocked {blocked} vs naive {naive}"
                );
            }
        }
    }

    #[test]
    fn adc_cosine_table_matches_explicit_formula() {
        // Two subspaces, 3 centroids each; evaluate against the hand formula.
        let dot = vec![1.0f32, 2.0, 3.0, -1.0, 0.5, 2.5];
        let norm2 = vec![1.0f32, 4.0, 9.0, 1.0, 0.25, 6.25];
        let table = AdcTable::Cosine {
            dot: dot.clone(),
            norm2: norm2.clone(),
            n_centroids: 3,
            query_norm: 2.0,
        };
        let code = [1u8, 2];
        let ab = dot[1] + dot[3 + 2];
        let nn = norm2[1] + norm2[3 + 2];
        let expect = 1.0 - ab / (2.0 * nn.sqrt());
        assert_eq!(adc_eval(&table, &code), expect);
        // Zero query norm or zero reconstructed norm → maximally distant.
        let zero_q = AdcTable::Cosine {
            dot: dot.clone(),
            norm2: norm2.clone(),
            n_centroids: 3,
            query_norm: 0.0,
        };
        assert_eq!(adc_eval(&zero_q, &code), 1.0);
        let zero_row = AdcTable::Cosine {
            dot,
            norm2: vec![0.0; 6],
            n_centroids: 3,
            query_norm: 2.0,
        };
        assert_eq!(adc_eval(&zero_row, &code), 1.0);
    }

    /// The message scoring `codes` on `backend` panics with, or `None` if it scored them.
    fn refusal(
        table: &AdcTable,
        codes: &[u8],
        code_len: usize,
        backend: Backend,
    ) -> Option<String> {
        let mut out = vec![0.0f32; codes.len() / code_len];
        let scored = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            table.score_codes(codes, code_len, &mut out, backend)
        }));
        scored
            .err()
            .map(|e| e.downcast_ref::<String>().cloned().unwrap_or_default())
    }

    /// Two subspaces of four centroids. Before the check, code `[5, 0]` scored 201
    /// (`table[5] + table[4]`), `[1]` scored 1 and `[0, 4]` indexed past the table.
    fn two_by_four() -> AdcTable {
        let table = vec![0.0, 1.0, 2.0, 3.0, 100.0, 101.0, 102.0, 103.0];
        AdcTable::Sum {
            table,
            n_centroids: 4,
        }
    }

    /// Asserts that `bad` is refused with `message`, alone through `adc_eval` and as
    /// code 3 of a tile of nine (in the AVX2 form's first group of eight), on the
    /// portable form and on the host's.
    fn assert_refused(bad: &[u8], message: &str) {
        let table = two_by_four();
        let single = std::panic::catch_unwind(|| adc_eval(&table, bad));
        let single = single
            .err()
            .and_then(|e| e.downcast_ref::<String>().cloned());
        assert!(
            single.as_deref().is_some_and(|m| m.contains(message)),
            "{single:?}"
        );
        let mut tile: Vec<u8> = [1, 2].repeat(9)[..9 * bad.len()].to_vec();
        tile[3 * bad.len()..4 * bad.len()].copy_from_slice(bad);
        for backend in [Backend::Portable, Backend::detect()] {
            let refused = refusal(&table, &tile, bad.len(), backend);
            assert!(
                refused.as_deref().is_some_and(|m| m.contains(message)),
                "{}: {refused:?}",
                backend.name()
            );
        }
    }

    #[test]
    fn adc_refuses_a_byte_past_an_inner_subspaces_centroids() {
        assert_refused(
            &[5, 0],
            "code byte 5 names no centroid of the 4 per subspace",
        );
    }

    #[test]
    fn adc_refuses_a_byte_past_the_last_subspaces_centroids() {
        assert_refused(
            &[0, 4],
            "code byte 4 names no centroid of the 4 per subspace",
        );
    }

    #[test]
    fn adc_refuses_a_code_shorter_than_the_table() {
        assert_refused(
            &[1],
            "1-byte codes against 8 entries of 4 centroids per subspace",
        );
    }

    #[test]
    fn adc_scores_well_formed_codes_on_every_form() {
        let table = two_by_four();
        assert_eq!(adc_eval(&table, &[3, 1]), 104.0);
        let tile: Vec<u8> = (0..9 * 2).map(|i| (i % 4) as u8).collect();
        for backend in [Backend::Portable, Backend::detect()] {
            assert_eq!(
                refusal(&table, &tile, 2, backend),
                None,
                "{}",
                backend.name()
            );
        }
        // 256 centroids name every byte: no byte is refused.
        let wide = AdcTable::Sum {
            table: vec![1.0; 2 * 256],
            n_centroids: 256,
        };
        assert_eq!(adc_eval(&wide, &[255, 0]), 2.0);
    }

    #[test]
    fn adc_scan_matches_materialised_selection() {
        // The segmented compressed scan must keep exactly the set that evaluating every
        // code and running smallest_k_by over the concatenated stream selects, and
        // report it in stream order — with the second segment inside one tile of the
        // scan, and spanning several.
        let (m, k_cent) = (5, 32);
        let table = sum_table(m, k_cent, 7);
        for n in [40, 2 * TILE + 88] {
            let codes = codes_for(n, m, k_cent, 3);
            let mut reference =
                topk::smallest_k_by(n, 6, |i| adc_eval(&table, &codes[i * m..(i + 1) * m]));
            reference.sort_unstable();

            let mut scan = SegmentedScan::adc(&table, m, 6);
            scan.scan_segment(&codes[..12 * m], 12, 0);
            scan.scan_segment(&[], 0, 777); // empty segments leave no trace
            scan.scan_segment(&codes[12 * m..], n - 12, 12);
            assert_eq!(scan.scanned(), n);
            let winners = scan.into_kept();
            let stream: Vec<usize> = winners.iter().map(|&(base, off, _)| base + off).collect();
            assert_eq!(stream, reference, "{n} codes");
            // Distances are consistent with the stream indices.
            for &(base, off, dist) in &winners {
                let pos = base + off;
                assert_eq!(
                    dist.to_bits(),
                    adc_eval(&table, &codes[pos * m..(pos + 1) * m]).to_bits()
                );
            }
        }
    }

    #[test]
    #[should_panic(expected = "does not fit the selector's u32")]
    fn a_stream_past_u32_positions_panics_in_the_exact_scan_too() {
        // Zero-dimensional rows make a 2^32-row segment free to name, and the check
        // comes before any row is scored. It is the one scan's own, so it is the
        // compressed scan's too.
        let mut scan = SegmentedScan::new(Distance::SquaredEuclidean, &[], 0, 1);
        scan.scan_segment(&[], 5, 0);
        scan.scan_segment(&[], u32::MAX as usize - 4, 5);
    }

    #[test]
    fn into_kept_is_into_winners_in_stream_order() {
        let dim = 4;
        let q = rows_matrix(1, dim, 41);
        let rows = rows_matrix(TILE + 30, dim, 42);
        let scan = |k| {
            let mut scan = SegmentedScan::new(Distance::Euclidean, &q, dim, k);
            scan.scan_segment(&rows[..20 * dim], 20, 1000);
            scan.scan_segment(&rows[20 * dim..], TILE + 10, 0);
            scan
        };
        for k in [0, 1, 9, 2 * TILE] {
            let mut winners = scan(k).into_winners();
            // Stream order: the segment tagged 1000 was streamed first.
            winners.sort_by_key(|&(base, off, _)| (base == 0, off));
            assert_eq!(winners, scan(k).into_kept(), "k={k}");
        }
    }

    // The three below fail in `--release` at the parent of the change that added them:
    // the query's length was only `debug_assert`ed, so a short query silently scored a
    // prefix of every row.
    #[test]
    #[should_panic(expected = "scan_block: query is not 16-d")]
    fn scan_block_rejects_a_query_of_the_wrong_length() {
        let mut top = TopK::new(1);
        let (query, rows) = ([1.0; 8], [0.0; 32]);
        scan_block(Distance::SquaredEuclidean, &query, &rows, 16, 0, &mut top);
    }

    #[test]
    #[should_panic(expected = "SegmentedScan: query is not 16-d")]
    fn segmented_scan_rejects_a_query_of_the_wrong_length() {
        SegmentedScan::new(Distance::InnerProduct, &[1.0; 8], 16, 1);
    }

    #[test]
    #[should_panic(expected = "1 rows as long as the 8-d query")]
    fn eval_rejects_a_row_of_the_wrong_length() {
        eval(Distance::SquaredEuclidean, &[1.0; 8], &[0.0; 16]);
    }

    fn live(deleted: &[bool], cap: usize) -> Vec<(usize, usize)> {
        live_runs(deleted, cap).collect()
    }

    #[test]
    fn live_runs_splits_on_tombstones() {
        assert_eq!(live(&[], usize::MAX), vec![]);
        assert_eq!(live(&[false; 4], usize::MAX), vec![(0, 4)]);
        assert_eq!(live(&[true; 3], usize::MAX), vec![]);
        assert_eq!(
            live(&[false, true, false, false, true, false], usize::MAX),
            vec![(0, 1), (2, 2), (5, 1)]
        );
        // Leading and trailing tombstones.
        assert_eq!(live(&[true, false, false, true], usize::MAX), vec![(1, 2)]);
    }

    #[test]
    fn live_runs_cap_truncates_the_live_stream() {
        let mask = [false, false, true, false, false, false];
        assert_eq!(live(&mask, 0), vec![]);
        assert_eq!(live(&mask, 1), vec![(0, 1)]);
        assert_eq!(live(&mask, 2), vec![(0, 2)]);
        // Cap cuts the second run mid-way.
        assert_eq!(live(&mask, 4), vec![(0, 2), (3, 2)]);
        assert_eq!(live(&mask, 5), vec![(0, 2), (3, 3)]);
        assert_eq!(live(&mask, 99), vec![(0, 2), (3, 3)]);
    }

    #[test]
    fn live_runs_cover_exactly_the_live_prefix() {
        // Property-style check on a fixed awkward mask: concatenating the runs
        // enumerates the first `cap` live indices in order.
        let mask = [
            true, false, true, true, false, false, true, false, true, true, false,
        ];
        let live: Vec<usize> = (0..mask.len()).filter(|&i| !mask[i]).collect();
        for cap in 0..=live.len() + 2 {
            let mut covered = Vec::new();
            for (start, len) in live_runs(&mask, cap) {
                covered.extend(start..start + len);
                assert!((start..start + len).all(|i| !mask[i]));
            }
            assert_eq!(covered, live[..cap.min(live.len())].to_vec());
        }
    }

    #[test]
    fn scan_block_on_empty_block_keeps_topk_empty() {
        let mut top = TopK::new(3);
        scan_block(Distance::SquaredEuclidean, &[1.0, 2.0], &[], 2, 0, &mut top);
        assert!(top.is_empty());
    }

    #[test]
    fn poisoned_rows_rank_exactly_like_the_scalar_path() {
        // NaN / ±inf coordinates must land every poisoned row in the same rank the
        // scalar Distance::eval + smallest_k_by path puts it (NaN strictly last).
        let dim = 10;
        let q = rows_matrix(1, dim, 21);
        let mut rows = rows_matrix(12, dim, 22);
        rows[2 * dim + 3] = f32::NAN;
        rows[5 * dim] = f32::INFINITY;
        rows[7 * dim + 9] = f32::NEG_INFINITY;
        rows[9 * dim + 1] = f32::INFINITY;
        rows[9 * dim + 2] = f32::NEG_INFINITY; // mixed signs → NaN distance
        for d in ALL_DISTANCES {
            let mut top = TopK::new(12);
            scan_block(d, &q, &rows, dim, 0, &mut top);
            let fused = top.into_sorted_indices();
            let scalar_order =
                topk::smallest_k_by(12, 12, |i| d.eval(&q, &rows[i * dim..(i + 1) * dim]));
            assert_eq!(fused, scalar_order, "{}", d.name());
            // And the NaN-distance rows are at the very end in both.
            let nan_rows: Vec<usize> = (0..12)
                .filter(|&i| d.eval(&q, &rows[i * dim..(i + 1) * dim]).is_nan())
                .collect();
            assert!(
                !nan_rows.is_empty(),
                "{}: test wants poisoned rows",
                d.name()
            );
            for r in &nan_rows {
                let pos = fused.iter().position(|x| x == r).unwrap();
                assert!(
                    pos >= 12 - nan_rows.len(),
                    "{}: NaN row {r} ranked {pos}, before a comparable row",
                    d.name()
                );
            }
        }
    }
}

#[cfg(test)]
mod proptests {
    use super::tests::scan_block;
    use super::*;
    use crate::topk;
    use proptest::prelude::*;

    /// The explicit-SIMD backend of this host, or `None` — said once per test on stderr,
    /// so a run on a host without one shows the comparison was skipped, not passed.
    fn simd_backend_or_report_skip(test: &'static str) -> Option<Backend> {
        static REPORTED: std::sync::Mutex<Vec<&str>> = std::sync::Mutex::new(Vec::new());
        match Backend::detect() {
            Backend::Portable => {
                let mut reported = REPORTED.lock().unwrap();
                if !reported.contains(&test) {
                    reported.push(test);
                    eprintln!(
                        "SKIPPED {test}: this host has no AVX2; only the portable kernels ran"
                    );
                }
                None
            }
            #[cfg(target_arch = "x86_64")]
            simd => Some(simd),
        }
    }

    /// NaN, ±∞, ±0.0 and the smallest and largest subnormals, by class.
    fn special(class: u8) -> f32 {
        match class {
            0 => f32::NAN,
            1 => f32::INFINITY,
            2 => f32::NEG_INFINITY,
            3 => 0.0,
            4 => -0.0,
            5 => f32::from_bits(1),
            _ => -f32::from_bits(0x007f_ffff),
        }
    }

    /// Equal bits, or both NaN (which NaN is unspecified, DESIGN.md §2.2).
    fn same(a: f32, b: f32) -> bool {
        a.to_bits() == b.to_bits() || (a.is_nan() && b.is_nan())
    }

    proptest! {
        /// Blocked values stay within 1e-5 relative of the scalar kernels on arbitrary
        /// finite inputs (the accumulators only reorder the same additions).
        #[test]
        fn blocked_values_agree_with_scalar_within_1e5(
            q in prop::collection::vec(-100.0f32..100.0, 1..40),
            flat in prop::collection::vec(-100.0f32..100.0, 1..40),
        ) {
            let dim = q.len().min(flat.len());
            let (q, r) = (&q[..dim], &flat[..dim]);
            for d in ALL_DISTANCES {
                let blocked = eval(d, q, r);
                let scalar = d.eval(q, r);
                let tol = 1e-5 * scalar.abs().max(1.0);
                prop_assert!(
                    (blocked - scalar).abs() <= tol,
                    "{} blocked {} vs scalar {}", d.name(), blocked, scalar
                );
            }
        }

        /// On values where every intermediate is exactly representable (small dyadic
        /// rationals), reassociating the sums cannot round at all, so blocked and
        /// scalar scoring must agree **bit for bit** — and hence produce identical
        /// candidate orderings.
        #[test]
        fn ordering_is_identical_on_exactly_representable_inputs(
            q_units in prop::collection::vec(-16i32..17, 1..24),
            flat_units in prop::collection::vec(-16i32..17, 8..192),
            k in 1usize..12,
        ) {
            let dim = q_units.len().min(flat_units.len());
            let n = flat_units.len() / dim;
            let q: Vec<f32> = q_units[..dim].iter().map(|&u| u as f32 / 4.0).collect();
            let rows: Vec<f32> = flat_units[..n * dim].iter().map(|&u| u as f32 / 4.0).collect();
            for d in ALL_DISTANCES {
                for i in 0..n {
                    let r = &rows[i * dim..(i + 1) * dim];
                    prop_assert_eq!(
                        eval(d, &q, r).to_bits(),
                        d.eval(&q, r).to_bits(),
                        "{} row {}", d.name(), i
                    );
                }
                let mut top = TopK::new(k);
                scan_block(d, &q, &rows, dim, 0, &mut top);
                let blocked_order = top.into_sorted_indices();
                let scalar_order =
                    topk::smallest_k_by(n, k, |i| d.eval(&q, &rows[i * dim..(i + 1) * dim]));
                prop_assert_eq!(&blocked_order, &scalar_order, "{} ordering", d.name());
            }
        }

        /// The AVX2 kernels against their oracle, the portable blocked code: the same
        /// bits for every metric, through the block path (four rows per query chunk,
        /// then the `n % 4` left over), the single-row path and a whole scan. `dim`
        /// covers partial chunks (`dim % 8 ≠ 0`, and `dim % 4 ≠ 0` for cosine's 4-wide
        /// lanes), the query starts one float into its allocation and the rows `dim + 2`
        /// floats in so loads are unaligned, and rows and query are seeded with NaN, ±∞
        /// and ±0.0.
        #[test]
        fn avx2_matches_portable_bit_for_bit(
            dim in 1usize..=200,
            n in 0usize..14,
            seed in 0u64..1 << 40,
            specials in prop::collection::vec((0usize..1 << 20, 0u8..5), 0..8),
            special_query in 0u8..4,
            k in 1usize..6,
        ) {
            let Some(simd) = simd_backend_or_report_skip("avx2_matches_portable_bit_for_bit") else { return Ok(()) };
            let mut values = crate::rng::normal_vector(&mut crate::rng::seeded(seed), 2 + (n + 1) * dim);
            for &(at, class) in &specials {
                // Mostly in the rows; `special_query == 0` also poisons the query.
                let lo = if special_query == 0 { 1 } else { 2 + dim };
                if lo < values.len() {
                    let at = lo + at % (values.len() - lo);
                    values[at] = special(class);
                }
            }
            let (query, rows) = (&values[1..1 + dim], &values[2 + dim..]);
            for d in ALL_DISTANCES {
                let portable = QueryScorer::with_backend(d, query, Backend::Portable);
                let simd = QueryScorer::with_backend(d, query, simd);
                let (mut want, mut got) = (vec![0.0f32; n], vec![0.0f32; n]);
                portable.eval_rows(rows, &mut want);
                simd.eval_rows(rows, &mut got);
                for i in 0..n {
                    prop_assert!(
                        same(want[i], got[i]),
                        "{} dim={dim} row {i} of {n}: portable {:?} ({:#x}) vs simd {:?} ({:#x})",
                        d.name(), want[i], want[i].to_bits(), got[i], got[i].to_bits()
                    );
                    let single = simd.eval(&rows[i * dim..(i + 1) * dim]);
                    prop_assert!(same(want[i], single), "{} dim={dim} single row {i}", d.name());
                }
                let (mut want_top, mut got_top) = (TopK::new(k), TopK::new(k));
                scan_tiles(&portable, rows, dim, n, 0, &mut want_top);
                scan_tiles(&simd, rows, dim, n, 0, &mut got_top);
                let (want_top, got_top) = (want_top.into_sorted(), got_top.into_sorted());
                prop_assert_eq!(want_top.len(), got_top.len());
                for (w, g) in want_top.iter().zip(&got_top) {
                    prop_assert!(w.0 == g.0 && same(w.1, g.1), "{} scan: {w:?} vs {g:?}", d.name());
                }
            }
        }

        /// The ADC lookup's AVX2 form against its oracle, `lut_sum`: the same bits for
        /// `Sum` and `Cosine` tables, through whole groups of eight codes and the
        /// portable tail. Code lengths 1..=33 cover the word gathers with a partial last
        /// word (`m % 4 ≠ 0`), the padded copy (`m < 4`) and more than one word past it;
        /// one case in five takes the served one-u64 layout (`m = 8`) outright.
        /// `n_centroids` covers one centroid, an odd count, 255
        /// (the largest with a byte check) and 256 (none); the entries carry NaN, ±∞,
        /// ±0.0 and subnormals, and the query norm zero.
        #[test]
        fn adc_avx2_matches_portable_bit_for_bit(
            m_drawn in 1usize..=41,
            centroid_class in 0usize..5,
            n in 0usize..=70,
            seed in 0u64..1 << 40,
            specials in prop::collection::vec((0usize..1 << 20, 0u8..7), 0..24),
            zero_query in 0u8..4,
        ) {
            let Some(simd) = simd_backend_or_report_skip("adc_avx2_matches_portable_bit_for_bit") else { return Ok(()) };
            let m = if m_drawn > 33 { 8 } else { m_drawn };
            let n_centroids = [1, 2, 17, 255, 256][centroid_class];
            let mut rng = crate::rng::seeded(seed);
            let entries = 3 * m * n_centroids;
            let mut values = crate::rng::normal_vector(&mut rng, entries);
            for &(at, class) in &specials {
                values[at % entries] = special(class);
            }
            let third = m * n_centroids;
            let codes: Vec<u8> = (0..n * m)
                .map(|_| (rand::Rng::random::<u32>(&mut rng) as usize % n_centroids) as u8)
                .collect();
            let tables = [
                AdcTable::Sum { table: values[..third].to_vec(), n_centroids },
                AdcTable::Cosine {
                    dot: values[third..2 * third].to_vec(),
                    norm2: values[2 * third..].to_vec(),
                    n_centroids,
                    query_norm: if zero_query == 0 { 0.0 } else { 1.5 },
                },
            ];
            for table in &tables {
                let (mut want, mut got) = (vec![0.0f32; n], vec![0.0f32; n]);
                table.score_codes(&codes, m, &mut want, Backend::Portable);
                table.score_codes(&codes, m, &mut got, simd);
                for i in 0..n {
                    prop_assert!(
                        same(want[i], got[i]),
                        "m={m} n_centroids={n_centroids} code {i} of {n}: portable {:?} ({:#x}) vs simd {:?} ({:#x})",
                        want[i], want[i].to_bits(), got[i], got[i].to_bits()
                    );
                    prop_assert!(same(want[i], adc_eval(table, &codes[i * m..(i + 1) * m])));
                }
            }
        }

        /// The gathered re-rank against per-row `eval`: four rows anywhere in memory —
        /// repeats of one row included — score with the bits each row scores alone, on
        /// both forms, for every metric and every length through a partial last chunk.
        #[test]
        fn four_gathered_rows_score_as_each_row_alone(
            dim in 0usize..=70,
            seed in 0u64..1 << 40,
            picks in prop::collection::vec((0usize..5, 0usize..5, 0usize..5, 0usize..5), 1..4),
            specials in prop::collection::vec((0usize..1 << 20, 0u8..7), 0..6),
        ) {
            let mut values = crate::rng::normal_vector(&mut crate::rng::seeded(seed), 6 * dim);
            if !values.is_empty() {
                let len = values.len();
                for &(at, class) in &specials {
                    values[at % len] = special(class);
                }
            }
            let (query, rows) = values.split_at(dim);
            let row = |i: usize| &rows[i * dim..(i + 1) * dim];
            let mut backends = vec![Backend::Portable];
            backends.extend(simd_backend_or_report_skip("four_gathered_rows_score_as_each_row_alone"));
            for d in ALL_DISTANCES {
                for &backend in &backends {
                    let scorer = QueryScorer::with_backend(d, query, backend);
                    for &(a, b, c, e) in &picks {
                        let got = scorer.eval4([row(a), row(b), row(c), row(e)]);
                        for (j, i) in [a, b, c, e].into_iter().enumerate() {
                            let alone = QueryScorer::with_backend(d, query, Backend::Portable).eval(row(i));
                            prop_assert!(
                                same(got[j], alone),
                                "{} {} dim={dim} rows {:?}: slot {j} {:?} vs alone {:?}",
                                d.name(), backend.name(), (a, b, c, e), got[j], alone
                            );
                            prop_assert!(same(got[j], scorer.eval(row(i))));
                        }
                    }
                }
            }
        }

        /// The fused scan returns each winner's distance bit-equal to re-evaluating
        /// that pair — the contract that lets every consumer take winners' distances
        /// from the selection instead of re-deriving them.
        #[test]
        fn fused_scan_reports_the_evaluated_distances(
            q in prop::collection::vec(-50.0f32..50.0, 2..16),
            flat in prop::collection::vec(-50.0f32..50.0, 2..128),
            k in 1usize..8,
        ) {
            let dim = q.len().min(flat.len());
            let q = &q[..dim];
            let n = flat.len() / dim;
            let rows = &flat[..n * dim];
            for d in ALL_DISTANCES {
                let mut top = TopK::new(k);
                scan_block(d, q, rows, dim, 0, &mut top);
                for (i, dist) in top.into_sorted() {
                    let i = i as usize;
                    prop_assert_eq!(
                        dist.to_bits(),
                        eval(d, q, &rows[i * dim..(i + 1) * dim]).to_bits(),
                        "{} row {}", d.name(), i
                    );
                }
            }
        }
    }
}
