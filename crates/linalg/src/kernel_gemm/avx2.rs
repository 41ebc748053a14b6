//! AVX2 forms of the matrix products — [`super::dot`]'s arithmetic and the backward
//! products' per-element order, lane for lane, so the two forms produce identical bits
//! (DESIGN.md §2.2's second contract).
//!
//! * `A·Bᵀ` ([`abt`]): one `__m256` holds two outputs' four `dot` lanes, output `j`'s in
//!   the low half and output `j + 4`'s in the high half. `B` is packed by
//!   [`super::PackedBt`] into panels of [`PANEL`] rows so that each such pair is one
//!   load; a 4-float chunk of a row of `A` is broadcast to both halves, and two rows of
//!   `A` go through each pass over a panel. Every term is a `mul` then an `add` (no FMA),
//!   each half is combined by the 4×4 transpose `((s0 + s1) + s2) + s3`, and the `k % 4`
//!   tail is summed in order from `0.0` in a register of its own, then added.
//! * `Aᵀ·B` and `A·B` ([`accumulate_rows`]): a register tile of 4 output rows × 16
//!   columns in eight `__m256` accumulators, terms added in ascending `p`, a term whose
//!   coefficient is `0.0` skipped for its row. The `m % 8` columns left over take the
//!   portable loop, which has the same order.
//!
//! `usp-lint`'s `scoring-outside-kernel` rule confines `std::arch` to this module and
//! the scan's (the `crates/linalg/src/kernel*` prefix).

use std::arch::x86_64::*;

/// Rows of `B` in one packed panel: four registers of two rows each.
pub(super) const PANEL: usize = 8;

/// Output rows of a backward register tile.
const TILE_ROWS: usize = 4;

/// `B` (`m × k`, row-major) as [`abt`] reads it: panel `q` holds rows `8q..8q + 8`
/// (zeros past `m`) in `8 · k` floats. For a chunk `p = 4c < k & !3` the 32 floats at
/// `8p` are four registers, register `n` holding row `8q + n`'s `p..p + 4` in its low
/// half and row `8q + 4 + n`'s in its high half; for a tail element `p ≥ k & !3` the
/// eight floats at `8p` are element `p` of the panel's eight rows.
pub(super) fn pack(b: &[f32], m: usize, k: usize) -> Vec<f32> {
    let full = k & !3;
    let mut packed = vec![0.0f32; m.div_ceil(PANEL) * PANEL * k];
    for (j, row) in b.chunks_exact(k.max(1)).take(m).enumerate() {
        let panel = &mut packed[j / PANEL * PANEL * k..][..PANEL * k];
        let (n, half) = (j % 4, j % PANEL / 4);
        for p in (0..full).step_by(4) {
            panel[8 * p + 8 * n + 4 * half..][..4].copy_from_slice(&row[p..p + 4]);
        }
        for p in full..k {
            panel[8 * p + j % PANEL] = row[p];
        }
    }
    packed
}

/// `dot`'s lane combine for the eight outputs of a panel: lane `n` of each half of the
/// result is `((s0 + s1) + s2) + s3` of that half of `acc[n]`.
#[inline]
#[target_feature(enable = "avx2")]
fn combine_halves(acc: [__m256; 4]) -> __m256 {
    // A 4×4 transpose (32-bit unpacks, then 64-bit ones) in each 128-bit half at once:
    // `s[l]` holds lane `l` of each accumulator.
    let lo01 = _mm256_unpacklo_ps(acc[0], acc[1]);
    let lo23 = _mm256_unpacklo_ps(acc[2], acc[3]);
    let hi01 = _mm256_unpackhi_ps(acc[0], acc[1]);
    let hi23 = _mm256_unpackhi_ps(acc[2], acc[3]);
    let pairs = |x: __m256, y: __m256, high: bool| {
        let (x, y) = (_mm256_castps_pd(x), _mm256_castps_pd(y));
        _mm256_castpd_ps(if high {
            _mm256_unpackhi_pd(x, y)
        } else {
            _mm256_unpacklo_pd(x, y)
        })
    };
    let s0 = pairs(lo01, lo23, false);
    let s1 = pairs(lo01, lo23, true);
    let s2 = pairs(hi01, hi23, false);
    let s3 = pairs(hi01, hi23, true);
    _mm256_add_ps(_mm256_add_ps(_mm256_add_ps(s0, s1), s2), s3)
}

/// `out[r][n] = dot(row r of A, row n of the panel)` for `R` rows of `A` and the
/// panel's first `width` rows.
///
/// # Safety
/// AVX2 must be available, every `a[r]` valid for `k` reads, `panel` for `8 · k` and
/// every `out[r]` for `width ≤ 8` writes.
#[inline]
#[target_feature(enable = "avx2")]
unsafe fn panel_dots<const R: usize>(
    a: [*const f32; R],
    k: usize,
    panel: *const f32,
    out: [*mut f32; R],
    width: usize,
) {
    let full = k & !3;
    let mut acc = [[_mm256_setzero_ps(); 4]; R];
    let mut p = 0;
    while p < full {
        let b = [0, 1, 2, 3].map(|n| _mm256_loadu_ps(panel.add(8 * p + 8 * n)));
        for r in 0..R {
            let chunk = _mm_loadu_ps(a[r].add(p));
            let av = _mm256_set_m128(chunk, chunk);
            for n in 0..4 {
                acc[r][n] = _mm256_add_ps(acc[r][n], _mm256_mul_ps(av, b[n]));
            }
        }
        p += 4;
    }
    let mut rest = [_mm256_setzero_ps(); R];
    while p < k {
        let b = _mm256_loadu_ps(panel.add(8 * p));
        for r in 0..R {
            let av = _mm256_set1_ps(*a[r].add(p));
            rest[r] = _mm256_add_ps(rest[r], _mm256_mul_ps(av, b));
        }
        p += 1;
    }
    for r in 0..R {
        let sums = _mm256_add_ps(combine_halves(acc[r]), rest[r]);
        if width == PANEL {
            _mm256_storeu_ps(out[r], sums);
        } else {
            let mut lanes = [0.0f32; PANEL];
            _mm256_storeu_ps(lanes.as_mut_ptr(), sums);
            std::ptr::copy_nonoverlapping(lanes.as_ptr(), out[r], width);
        }
    }
}

/// `out = A·Bᵀ` for row-major `A` (`rows × k`) and `out` (`rows × m`) and `B` packed by
/// [`pack`]: two rows of `A` per pass over each panel, then the odd row alone.
///
/// # Safety
/// AVX2 must be available, `a` valid for `rows · k` reads, `packed` for
/// `⌈m / 8⌉ · 8 · k` and `out` for `rows · m` writes.
#[target_feature(enable = "avx2")]
pub(super) unsafe fn abt(
    a: *const f32,
    rows: usize,
    k: usize,
    m: usize,
    packed: *const f32,
    out: *mut f32,
) {
    let mut i = 0;
    while i < rows {
        let pair = i + 1 < rows;
        for j in (0..m).step_by(PANEL) {
            let (panel, width) = (packed.add(j * k), PANEL.min(m - j));
            let (a0, out0) = (a.add(i * k), out.add(i * m + j));
            if pair {
                let (a1, out1) = (a0.add(k), out0.add(m));
                panel_dots::<2>([a0, a1], k, panel, [out0, out1], width);
            } else {
                panel_dots::<1>([a0], k, panel, [out0], width);
            }
        }
        i += if pair { 2 } else { 1 };
    }
}

/// One register tile of [`accumulate_rows`]: `R` output rows × `8 · W` columns.
///
/// # Safety
/// As [`accumulate_rows`], for the tile's rows and columns.
#[inline]
#[target_feature(enable = "avx2")]
unsafe fn tile<const R: usize, const W: usize>(
    a: *const f32,
    (row_stride, p_stride): (usize, usize),
    b: *const f32,
    terms: usize,
    m: usize,
    out: *mut f32,
) {
    let mut acc = [[_mm256_setzero_ps(); W]; R];
    for r in 0..R {
        for w in 0..W {
            acc[r][w] = _mm256_loadu_ps(out.add(r * m + 8 * w));
        }
    }
    for p in 0..terms {
        let b_row = b.add(p * m);
        let bv: [__m256; W] = std::array::from_fn(|w| _mm256_loadu_ps(b_row.add(8 * w)));
        for r in 0..R {
            let av = *a.add(r * row_stride + p * p_stride);
            if av == 0.0 {
                continue;
            }
            let av = _mm256_set1_ps(av);
            for w in 0..W {
                acc[r][w] = _mm256_add_ps(acc[r][w], _mm256_mul_ps(av, bv[w]));
            }
        }
    }
    for r in 0..R {
        for w in 0..W {
            _mm256_storeu_ps(out.add(r * m + 8 * w), acc[r][w]);
        }
    }
}

/// The tiles of `R` output rows: sixteen columns at a time, then eight; returns the
/// first column it left to the caller (`m & !7`).
///
/// # Safety
/// As [`accumulate_rows`], for `R` rows.
#[inline]
#[target_feature(enable = "avx2")]
unsafe fn row_tiles<const R: usize>(
    a: *const f32,
    strides: (usize, usize),
    b: *const f32,
    terms: usize,
    m: usize,
    out: *mut f32,
) -> usize {
    let mut c = 0;
    while c + 16 <= m {
        tile::<R, 2>(a, strides, b.add(c), terms, m, out.add(c));
        c += 16;
    }
    if c + 8 <= m {
        tile::<R, 1>(a, strides, b.add(c), terms, m, out.add(c));
        c += 8;
    }
    c
}

/// `out.row(r) += Σ_p a(r, p) · B.row(p)` over the columns `0..m & !7`, for `rows` output
/// rows of `m` floats, `terms` rows of `B`, and `a(r, p) = a[r · row_stride + p ·
/// p_stride]`. Returns `m & !7`: the columns past it are the caller's.
///
/// # Safety
/// AVX2 must be available, `a` valid for reads at every `a(r, p)`, `b` for `terms · m`
/// reads and `out` for `rows · m` reads and writes.
#[target_feature(enable = "avx2")]
pub(super) unsafe fn accumulate_rows(
    a: *const f32,
    strides: (usize, usize),
    b: *const f32,
    terms: usize,
    m: usize,
    rows: usize,
    out: *mut f32,
) -> usize {
    let (row_stride, _) = strides;
    let mut r = 0;
    while r < rows {
        let (a_r, out_r) = (a.add(r * row_stride), out.add(r * m));
        match rows - r {
            1 => row_tiles::<1>(a_r, strides, b, terms, m, out_r),
            2 => row_tiles::<2>(a_r, strides, b, terms, m, out_r),
            3 => row_tiles::<3>(a_r, strides, b, terms, m, out_r),
            _ => row_tiles::<TILE_ROWS>(a_r, strides, b, terms, m, out_r),
        };
        r += (rows - r).min(TILE_ROWS);
    }
    m & !7
}
