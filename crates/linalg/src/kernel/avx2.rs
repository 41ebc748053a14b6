//! AVX2 forms of the blocked row kernels — the same arithmetic as the portable code in
//! the parent module, lane for lane, so the two produce identical bits (DESIGN.md §2.2).
//!
//! What "the same" pins down:
//!
//! * one `__m256` accumulator per row is the portable `[f32; 8]`: lane `l` sees
//!   elements `l, l + 8, l + 16, …` in that order (cosine's fused pass: two `__m128`s
//!   for its dual 4-wide accumulators);
//! * every term is a separate `mul` then `add`. No FMA: its single rounding would give
//!   an AVX2 host and a fallback host different bits;
//! * a partial last chunk is loaded under a mask and blended in, so the lanes the
//!   portable tail loop never touches keep their value;
//! * the lanes are reduced by an `hadd` tree, which adds exactly the pairs `combine`
//!   adds: `((a0+a1)+(a2+a3))+((a4+a5)+(a6+a7))`.
//!
//! Each kernel scores `N` rows against one query-chunk load: `N = 4` in the body of a
//! block — four independent add chains in flight, reduced together by three `hadd`s —
//! and `N = 1` for the up to three rows left over.
//!
//! `usp-lint`'s `scoring-outside-kernel` rule confines `std::arch` to this module and
//! `kernel_gemm` (the `crates/linalg/src/kernel*` prefix).

use std::arch::x86_64::*;

use super::{cosine_from_parts, Distance};

/// Lane masks for a partial chunk: the eight (or four) lanes loaded from offset `8 - t`
/// are `t` all-ones lanes followed by zeros.
const TAIL_MASK: [i32; 16] = [-1, -1, -1, -1, -1, -1, -1, -1, 0, 0, 0, 0, 0, 0, 0, 0];

/// One chunk's contribution per lane: `(q-r)²` (`SQ`) or `q·r` (`!SQ`).
#[inline]
#[target_feature(enable = "avx2")]
fn term<const SQ: bool>(q: __m256, r: __m256) -> __m256 {
    if SQ {
        let d = _mm256_sub_ps(q, r);
        _mm256_mul_ps(d, d)
    } else {
        _mm256_mul_ps(q, r)
    }
}

/// Per-row 8-lane accumulators of `Σ (q-r)²` (`SQ`) or `Σ q·r` (`!SQ`).
///
/// # Safety
/// AVX2 must be available, and `q` and every pointer in `rows` valid for `dim` reads.
#[inline]
#[target_feature(enable = "avx2")]
unsafe fn accumulate<const N: usize, const SQ: bool>(
    q: *const f32,
    rows: [*const f32; N],
    dim: usize,
) -> [__m256; N] {
    let mut acc = [_mm256_setzero_ps(); N];
    let full = dim & !7;
    let mut i = 0;
    while i < full {
        let qv = _mm256_loadu_ps(q.add(i));
        for n in 0..N {
            let rv = _mm256_loadu_ps(rows[n].add(i));
            acc[n] = _mm256_add_ps(acc[n], term::<SQ>(qv, rv));
        }
        i += 8;
    }
    let tail = dim - full;
    if tail > 0 {
        let mask = _mm256_loadu_si256(TAIL_MASK.as_ptr().add(8 - tail).cast());
        let keep = _mm256_castsi256_ps(mask);
        let qv = _mm256_maskload_ps(q.add(full), mask);
        for n in 0..N {
            let rv = _mm256_maskload_ps(rows[n].add(full), mask);
            let next = _mm256_add_ps(acc[n], term::<SQ>(qv, rv));
            acc[n] = _mm256_blendv_ps(acc[n], next, keep);
        }
    }
    acc
}

/// `combine` for four accumulators at once: lane `n` of the result is
/// `((a0+a1)+(a2+a3))+((a4+a5)+(a6+a7))` of `acc[n]`.
#[inline]
#[target_feature(enable = "avx2")]
fn reduce4(acc: [__m256; 4]) -> __m128 {
    // hadd works per 128-bit half: [x0+x1, x2+x3, y0+y1, y2+y3 | x4+x5, x6+x7, …].
    let ab = _mm256_hadd_ps(acc[0], acc[1]);
    let cd = _mm256_hadd_ps(acc[2], acc[3]);
    // Lane n of each half is now (a0+a1)+(a2+a3) resp. (a4+a5)+(a6+a7) of row n.
    let halves = _mm256_hadd_ps(ab, cd);
    _mm_add_ps(
        _mm256_castps256_ps128(halves),
        _mm256_extractf128_ps(halves, 1),
    )
}

/// Per-row dual 4-lane accumulators `(Σ q·r, Σ r·r)` — cosine's fused row pass.
///
/// # Safety
/// As [`accumulate`].
#[inline]
#[target_feature(enable = "avx2")]
unsafe fn accumulate_dot_and_self<const N: usize>(
    q: *const f32,
    rows: [*const f32; N],
    dim: usize,
) -> [(__m128, __m128); N] {
    let mut acc = [(_mm_setzero_ps(), _mm_setzero_ps()); N];
    let full = dim & !3;
    let mut i = 0;
    while i < full {
        let qv = _mm_loadu_ps(q.add(i));
        for n in 0..N {
            let rv = _mm_loadu_ps(rows[n].add(i));
            acc[n].0 = _mm_add_ps(acc[n].0, _mm_mul_ps(qv, rv));
            acc[n].1 = _mm_add_ps(acc[n].1, _mm_mul_ps(rv, rv));
        }
        i += 4;
    }
    let tail = dim - full;
    if tail > 0 {
        let mask = _mm_loadu_si128(TAIL_MASK.as_ptr().add(8 - tail).cast());
        let keep = _mm_castsi128_ps(mask);
        let qv = _mm_maskload_ps(q.add(full), mask);
        for n in 0..N {
            let rv = _mm_maskload_ps(rows[n].add(full), mask);
            let ab = _mm_add_ps(acc[n].0, _mm_mul_ps(qv, rv));
            let bb = _mm_add_ps(acc[n].1, _mm_mul_ps(rv, rv));
            acc[n].0 = _mm_blendv_ps(acc[n].0, ab, keep);
            acc[n].1 = _mm_blendv_ps(acc[n].1, bb, keep);
        }
    }
    acc
}

/// The dual-accumulator combine for four rows at once: lane `n` is
/// `(a0+a1)+(a2+a3)` of `acc[n]`.
#[inline]
#[target_feature(enable = "avx2")]
fn reduce4_narrow(acc: [__m128; 4]) -> __m128 {
    _mm_hadd_ps(_mm_hadd_ps(acc[0], acc[1]), _mm_hadd_ps(acc[2], acc[3]))
}

#[inline]
#[target_feature(enable = "avx2")]
fn to_array(v: __m128) -> [f32; 4] {
    let mut out = [0.0f32; 4];
    // SAFETY: `out` is four writable floats, exactly what an unaligned 128-bit store writes.
    unsafe { _mm_storeu_ps(out.as_mut_ptr(), v) };
    out
}

/// Walks `out.len()` rows of `dim` floats starting at `rows`, four at a time and then
/// singly, writing `x4` / `x1` of their pointers to the matching `out` slots.
///
/// # Safety
/// AVX2 must be available. `x4` and `x1` are only ever handed pointers to rows
/// `0..out.len()` of `rows`; the caller must make those valid for `dim` reads.
#[inline]
#[target_feature(enable = "avx2")]
unsafe fn for_each_row(
    rows: *const f32,
    dim: usize,
    out: &mut [f32],
    x4: impl Fn([*const f32; 4]) -> [f32; 4],
    x1: impl Fn(*const f32) -> f32,
) {
    let mut row = rows;
    let mut groups = out.chunks_exact_mut(4);
    for o in groups.by_ref() {
        o.copy_from_slice(&x4([0, 1, 2, 3].map(|j| row.add(j * dim))));
        row = row.add(4 * dim);
    }
    for o in groups.into_remainder() {
        *o = x1(row);
        row = row.add(dim);
    }
}

/// The 8-lane sums selected by `SQ` of four rows.
///
/// # Safety
/// As [`accumulate`].
#[inline]
#[target_feature(enable = "avx2")]
unsafe fn sum4<const SQ: bool>(q: *const f32, rows: [*const f32; 4], dim: usize) -> [f32; 4] {
    to_array(reduce4(accumulate::<4, SQ>(q, rows, dim)))
}

/// Cosine's fused pass over four rows, finished.
///
/// # Safety
/// As [`accumulate`].
#[inline]
#[target_feature(enable = "avx2")]
unsafe fn cosine4(query_norm: f32, q: *const f32, rows: [*const f32; 4], dim: usize) -> [f32; 4] {
    let acc = accumulate_dot_and_self::<4>(q, rows, dim);
    let ab = to_array(reduce4_narrow(acc.map(|a| a.0)));
    let bb = to_array(reduce4_narrow(acc.map(|a| a.1)));
    [0, 1, 2, 3].map(|j| cosine_from_parts(query_norm, ab[j], bb[j]))
}

/// [`for_each_row`] over the 8-lane sum selected by `SQ`, each passed through `finish`.
///
/// # Safety
/// As [`score_rows`].
#[inline]
#[target_feature(enable = "avx2")]
unsafe fn sums<const SQ: bool>(
    q: *const f32,
    rows: *const f32,
    dim: usize,
    out: &mut [f32],
    finish: impl Fn(f32) -> f32,
) {
    for_each_row(
        rows,
        dim,
        out,
        |r| sum4::<SQ>(q, r, dim).map(&finish),
        |r| {
            let [acc] = accumulate::<1, SQ>(q, [r], dim);
            finish(_mm_cvtss_f32(reduce4([acc; 4])))
        },
    );
}

/// `out[i]` = the `distance` between the query at `q` and row `i` of `rows`, with the
/// bits of [`super::QueryScorer`]'s portable evaluation.
///
/// # Safety
/// AVX2 must be available, `q` valid for `dim` reads and `rows` for `out.len() * dim`.
#[target_feature(enable = "avx2")]
pub(super) unsafe fn score_rows(
    distance: Distance,
    query_norm: f32,
    q: *const f32,
    rows: *const f32,
    dim: usize,
    out: &mut [f32],
) {
    match distance {
        Distance::SquaredEuclidean => sums::<true>(q, rows, dim, out, |s| s),
        Distance::Euclidean => sums::<true>(q, rows, dim, out, f32::sqrt),
        Distance::InnerProduct => sums::<false>(q, rows, dim, out, |s| -s),
        Distance::Cosine => for_each_row(
            rows,
            dim,
            out,
            |r| cosine4(query_norm, q, r, dim),
            |r| {
                let [(ab, bb)] = accumulate_dot_and_self::<1>(q, [r], dim);
                cosine_from_parts(
                    query_norm,
                    _mm_cvtss_f32(reduce4_narrow([ab; 4])),
                    _mm_cvtss_f32(reduce4_narrow([bb; 4])),
                )
            },
        ),
    }
}

/// The `distance`s between the query at `q` and four rows anywhere in memory, with the
/// bits of [`score_rows`]: each row's accumulator and `hadd` tree are those of the
/// contiguous four-row path.
///
/// # Safety
/// AVX2 must be available, `q` and every pointer in `rows` valid for `dim` reads.
#[target_feature(enable = "avx2")]
pub(super) unsafe fn score4(
    distance: Distance,
    query_norm: f32,
    q: *const f32,
    rows: [*const f32; 4],
    dim: usize,
) -> [f32; 4] {
    match distance {
        Distance::SquaredEuclidean => sum4::<true>(q, rows, dim),
        Distance::Euclidean => sum4::<true>(q, rows, dim).map(f32::sqrt),
        Distance::InnerProduct => sum4::<false>(q, rows, dim).map(|s| -s),
        Distance::Cosine => cosine4(query_norm, q, rows, dim),
    }
}

/// Bytes `w..w + 4` of each of the eight codes of `m` bytes at `codes`, as little-endian
/// u32 lanes in code order.
///
/// # Safety
/// AVX2 must be available, the eight codes valid for reads, and `w + 4 ≤ m`; or
/// `codes` a zero-padded 32-byte copy of eight codes of `m < 4` bytes, with `w = 0`.
/// `offsets` is `[0, m, 2m, …, 7m]`.
#[inline]
#[target_feature(enable = "avx2")]
unsafe fn code_words(codes: *const u8, m: usize, w: usize, offsets: __m256i) -> __m256i {
    if m == 8 {
        // One u64 a code: two loads hold codes 0–3 and 4–7 as (low, high) word pairs.
        let a = _mm256_loadu_ps(codes.cast());
        let b = _mm256_loadu_ps(codes.add(32).cast());
        // [c0 c1 c4 c5 | c2 c3 c6 c7] of the low (w = 0) or high (w = 4) words …
        let words = if w == 0 {
            _mm256_shuffle_ps::<0b10_00_10_00>(a, b)
        } else {
            _mm256_shuffle_ps::<0b11_01_11_01>(a, b)
        };
        // … and its middle 64-bit pairs swapped into code order.
        _mm256_permute4x64_epi64::<0b11_01_10_00>(_mm256_castps_si256(words))
    } else {
        _mm256_i32gather_epi32::<1>(codes.add(w).cast(), offsets)
    }
}

/// Adds subspace `s`'s entries of each table at the byte indices `idx` into `acc`.
///
/// # Safety
/// AVX2 must be available, and every table valid for reads at `s * n_centroids + i`
/// for each lane `i` of `idx`.
#[inline]
#[target_feature(enable = "avx2")]
unsafe fn look<const T: usize>(
    acc: &mut [__m256; T],
    tables: [*const f32; T],
    at: usize,
    idx: __m256i,
) {
    for t in 0..T {
        let entries = _mm256_i32gather_ps::<4>(tables[t].add(at), idx);
        acc[t] = _mm256_add_ps(acc[t], entries);
    }
}

/// `lut_sum` of eight codes at once, one code per lane, for each of `T` tables: the
/// lookup of subspace `s` is added into accumulator `s % 4` in ascending `s`, from
/// `+0.0`, and the four are combined `(a0+a1)+(a2+a3)` — the portable order exactly.
///
/// # Safety
/// AVX2 must be available, the eight codes of `m` bytes at `codes` valid for reads,
/// every table `m * n_centroids` entries long and every code byte below `n_centroids`.
/// `offsets` is `[0, m, 2m, …, 7m]`.
#[inline]
#[target_feature(enable = "avx2")]
unsafe fn lookup8<const T: usize>(
    tables: [*const f32; T],
    n_centroids: usize,
    codes: *const u8,
    m: usize,
    offsets: __m256i,
) -> [__m256; T] {
    let mut acc = [[_mm256_setzero_ps(); T]; 4];
    let low = _mm256_set1_epi32(0xff);
    let mut s = 0;
    while s + 4 <= m {
        let word = code_words(codes, m, s, offsets);
        let at = |j: usize| (s + j) * n_centroids;
        look(&mut acc[0], tables, at(0), _mm256_and_si256(word, low));
        let b1 = _mm256_and_si256(_mm256_srli_epi32::<8>(word), low);
        look(&mut acc[1], tables, at(1), b1);
        let b2 = _mm256_and_si256(_mm256_srli_epi32::<16>(word), low);
        look(&mut acc[2], tables, at(2), b2);
        look(&mut acc[3], tables, at(3), _mm256_srli_epi32::<24>(word));
        s += 4;
    }
    if s < m {
        // The last `m % 4` subspaces, from the four bytes that end the code — or, for a
        // code shorter than four bytes, from a padded copy so no read leaves the tile.
        let mut padded = [0u8; 32];
        let (word, w) = if m >= 4 {
            (code_words(codes, m, m - 4, offsets), m - 4)
        } else {
            std::ptr::copy_nonoverlapping(codes, padded.as_mut_ptr(), 8 * m);
            (code_words(padded.as_ptr(), m, 0, offsets), 0)
        };
        for (j, acc) in acc.iter_mut().enumerate().take(m - s) {
            let shift = _mm_cvtsi32_si128((8 * (s + j - w)) as i32);
            let byte = _mm256_and_si256(_mm256_srl_epi32(word, shift), low);
            look(acc, tables, (s + j) * n_centroids, byte);
        }
    }
    let mut sums = [_mm256_setzero_ps(); T];
    for t in 0..T {
        let (a, b) = (acc[0][t], acc[1][t]);
        let (c, d) = (acc[2][t], acc[3][t]);
        sums[t] = _mm256_add_ps(_mm256_add_ps(a, b), _mm256_add_ps(c, d));
    }
    sums
}

/// [`lookup8`] over each group of eight codes, handing the sums to `store` with the
/// group's eight `out` slots.
///
/// # Safety
/// As [`lookup8`], for `out.len()` (a multiple of eight) codes at `codes`; `8 * m` fits
/// an i32.
#[inline]
#[target_feature(enable = "avx2")]
unsafe fn for_each_group<const T: usize>(
    tables: [*const f32; T],
    n_centroids: usize,
    codes: *const u8,
    m: usize,
    out: &mut [f32],
    store: impl Fn([__m256; T], &mut [f32]),
) {
    let offsets = _mm256_mullo_epi32(
        _mm256_setr_epi32(0, 1, 2, 3, 4, 5, 6, 7),
        _mm256_set1_epi32(m as i32),
    );
    for (g, o) in out.chunks_exact_mut(8).enumerate() {
        let sums = lookup8(tables, n_centroids, codes.add(g * 8 * m), m, offsets);
        store(sums, o);
    }
}

/// `out[i]` = `lut_sum(table, n_centroids, code i)`, bit for bit.
///
/// # Safety
/// AVX2 must be available; `out.len()` is a multiple of eight, `codes` holds
/// `out.len()` codes of `m` bytes, `8 * m` fits an i32, the table holds
/// `m * n_centroids` entries and every code byte is below `n_centroids`.
#[target_feature(enable = "avx2")]
pub(super) unsafe fn adc_sums(
    table: *const f32,
    n_centroids: usize,
    codes: *const u8,
    m: usize,
    out: &mut [f32],
) {
    for_each_group([table], n_centroids, codes, m, out, |[sums], o| {
        // SAFETY: `o` is eight writable floats (`chunks_exact_mut(8)`).
        unsafe { _mm256_storeu_ps(o.as_mut_ptr(), sums) }
    });
}

/// `out[i]` = the cosine of code `i` from its `lut_sum`s over the `dot` and `norm2`
/// tables (`tables`), bit for bit as `AdcTable::eval`.
///
/// # Safety
/// As [`adc_sums`], for both tables.
#[target_feature(enable = "avx2")]
pub(super) unsafe fn adc_cosines(
    tables: [*const f32; 2],
    n_centroids: usize,
    query_norm: f32,
    codes: *const u8,
    m: usize,
    out: &mut [f32],
) {
    for_each_group(tables, n_centroids, codes, m, out, |[ab, bb], o| {
        let (mut dots, mut norms) = ([0.0f32; 8], [0.0f32; 8]);
        // SAFETY: each array is eight writable floats.
        unsafe {
            _mm256_storeu_ps(dots.as_mut_ptr(), ab);
            _mm256_storeu_ps(norms.as_mut_ptr(), bb);
        }
        for i in 0..8 {
            o[i] = cosine_from_parts(query_norm, dots[i], norms[i]);
        }
    });
}
