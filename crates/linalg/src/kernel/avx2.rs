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
        |r| to_array(reduce4(accumulate::<4, SQ>(q, r, dim))).map(&finish),
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
            |r| {
                let acc = accumulate_dot_and_self::<4>(q, r, dim);
                let ab = to_array(reduce4_narrow(acc.map(|a| a.0)));
                let bb = to_array(reduce4_narrow(acc.map(|a| a.1)));
                [0, 1, 2, 3].map(|j| cosine_from_parts(query_norm, ab[j], bb[j]))
            },
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
