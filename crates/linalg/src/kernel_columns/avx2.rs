//! AVX2 forms of the column kernels — the portable forms' per-point serial chains, lane
//! for lane, so both forms produce identical bits (DESIGN.md §2.2's third contract).
//!
//! A register block is 32 points in four `__m256` accumulators, lane `l` of register
//! `g` being point `j + 8g + l`. Per coordinate `t` the query's `q[t]` is broadcast and
//! every lane runs a `sub`, a `mul` and an `add` (no FMA), `t` ascending, from `0.0`.
//! [`nearest_column`] keeps each lane's running minimum and the block it came from in
//! four more pairs of registers for the whole pass, updated by a strict `<` compare
//! (`_CMP_LT_OQ`: false on NaN) and a blend on its mask, so within a lane the first
//! minimum stays. The 32 lanes are then reduced in registers to the smallest
//! `(distance, index)` pair, which is the portable form's rule without its per-lane
//! branches (they mispredict on distinct points), and the points past the last whole
//! block take one more block whose loads stop at the last point.
//!
//! `usp-lint`'s `scoring-outside-kernel` rule confines `std::arch` to the
//! `crates/linalg/src/kernel*` prefix, this module included.

use std::arch::x86_64::*;

/// Registers per block.
const REGS: usize = 4;
/// Points per register block: four registers of eight lanes.
const BLOCK: usize = 8 * REGS;

/// The squared distances from `q` to the 32 points of columns `j..j + 32`.
///
/// # Safety
/// AVX2 must be available and `columns` valid for reads of `q.len()` rows of `m`
/// floats with `j + 32 <= m`.
#[inline]
#[target_feature(enable = "avx2")]
unsafe fn block(q: &[f32], columns: *const f32, m: usize, j: usize) -> [__m256; REGS] {
    let mut acc = [_mm256_setzero_ps(); REGS];
    for (t, &qt) in q.iter().enumerate() {
        let (qt, row) = (_mm256_set1_ps(qt), columns.add(t * m + j));
        for (g, acc) in acc.iter_mut().enumerate() {
            let diff = _mm256_sub_ps(qt, _mm256_loadu_ps(row.add(8 * g)));
            *acc = _mm256_add_ps(*acc, _mm256_mul_ps(diff, diff));
        }
    }
    acc
}

/// The squared distances from `q` to the `m - j < 32` points of columns `j..m`, in
/// `out[..m - j]`: [`block`] with loads masked to the points that exist (the lanes past
/// them read `0.0`, and their sums are not looked at).
///
/// # Safety
/// AVX2 must be available, `columns` valid for reads of `q.len()` rows of `m` floats
/// and `j < m`.
#[inline]
#[target_feature(enable = "avx2")]
unsafe fn tail(q: &[f32], columns: *const f32, m: usize, j: usize, out: &mut [f32; BLOCK]) {
    let rest = (m - j) as i32;
    let lane = _mm256_setr_epi32(0, 1, 2, 3, 4, 5, 6, 7);
    let mask = [0, 1, 2, 3].map(|g| _mm256_cmpgt_epi32(_mm256_set1_epi32(rest - 8 * g), lane));
    let mut acc = [_mm256_setzero_ps(); REGS];
    for (t, &qt) in q.iter().enumerate() {
        let (qt, row) = (_mm256_set1_ps(qt), columns.add(t * m + j));
        for (g, acc) in acc.iter_mut().enumerate() {
            // A register with no point left is skipped: its address may be past the end.
            if (8 * g as i32) < rest {
                let c = _mm256_maskload_ps(row.add(8 * g), mask[g]);
                let diff = _mm256_sub_ps(qt, c);
                *acc = _mm256_add_ps(*acc, _mm256_mul_ps(diff, diff));
            }
        }
    }
    for (g, acc) in acc.iter().enumerate() {
        _mm256_storeu_ps(out.as_mut_ptr().add(8 * g), *acc);
    }
}

/// `out[j]` = the squared distance from `q` to point `j`, for the `m` points of
/// `columns`.
///
/// # Safety
/// AVX2 must be available, `columns` valid for reads of `q.len()` rows of `m` floats
/// and `out` for `m` writes.
#[target_feature(enable = "avx2")]
pub(super) unsafe fn to_columns(q: &[f32], columns: *const f32, m: usize, out: *mut f32) {
    let full = m - m % BLOCK;
    for j in (0..full).step_by(BLOCK) {
        for (g, acc) in block(q, columns, m, j).iter().enumerate() {
            _mm256_storeu_ps(out.add(j + 8 * g), *acc);
        }
    }
    if full < m {
        let mut rest = [0.0f32; BLOCK];
        tail(q, columns, m, full, &mut rest);
        std::ptr::copy_nonoverlapping(rest.as_ptr(), out.add(full), m - full);
    }
}

/// The nearest of the `m` points of `columns` and its squared distance, by the
/// portable form's rule (`super::nearest_column`).
///
/// # Safety
/// AVX2 must be available and `columns` valid for reads of `q.len()` rows of `m`
/// floats.
#[target_feature(enable = "avx2")]
pub(super) unsafe fn nearest_column(q: &[f32], columns: *const f32, m: usize) -> (usize, f32) {
    // A lane's block number is an `f32` (exact below 2²⁴), so both updates are blends
    // on the compare's one mask.
    let blocks = m / BLOCK;
    assert!(blocks < 1 << 24, "nearest_column: {m} points");
    let mut best_d = [_mm256_set1_ps(f32::INFINITY); REGS];
    let mut best_b = [_mm256_setzero_ps(); REGS];
    for b in 0..blocks {
        let dist = block(q, columns, m, b * BLOCK);
        let b = _mm256_set1_ps(b as f32);
        for g in 0..REGS {
            let closer = _mm256_cmp_ps::<_CMP_LT_OQ>(dist[g], best_d[g]);
            best_d[g] = _mm256_blendv_ps(best_d[g], dist[g], closer);
            best_b[g] = _mm256_blendv_ps(best_b[g], b, closer);
        }
    }
    let mut best = lowest(best_d, best_b);
    let full = blocks * BLOCK;
    if full < m {
        let mut rest = [0.0f32; BLOCK];
        tail(q, columns, m, full, &mut rest);
        for (j, &d) in (full..m).zip(&rest) {
            if d < best.1 {
                best = (j, d);
            }
        }
    }
    best
}

/// The lane with the smallest `(distance, index)` pair of two, lane by lane.
#[inline]
#[target_feature(enable = "avx2")]
fn pick(a: (__m256, __m256i), b: (__m256, __m256i)) -> (__m256, __m256i) {
    let tie = _mm256_and_ps(
        _mm256_cmp_ps::<_CMP_EQ_OQ>(b.0, a.0),
        _mm256_castsi256_ps(_mm256_cmpgt_epi32(a.1, b.1)),
    );
    let take = _mm256_or_ps(_mm256_cmp_ps::<_CMP_LT_OQ>(b.0, a.0), tie);
    (
        _mm256_blendv_ps(a.0, b.0, take),
        _mm256_castps_si256(_mm256_blendv_ps(
            _mm256_castsi256_ps(a.1),
            _mm256_castsi256_ps(b.1),
            take,
        )),
    )
}

/// The scalar loop's winner among the 32 lanes: the smallest distance, ties to the
/// lowest point index, and `(0, +∞)` when every lane is still at `+∞`.
#[inline]
#[target_feature(enable = "avx2")]
fn lowest(best_d: [__m256; REGS], best_b: [__m256; REGS]) -> (usize, f32) {
    let lane = _mm256_setr_epi32(0, 1, 2, 3, 4, 5, 6, 7);
    let lanes: [(__m256, __m256i); REGS] = std::array::from_fn(|g| {
        let j = _mm256_slli_epi32::<5>(_mm256_cvttps_epi32(best_b[g]));
        (
            best_d[g],
            _mm256_add_epi32(j, _mm256_add_epi32(lane, _mm256_set1_epi32(8 * g as i32))),
        )
    });
    let mut v = pick(pick(lanes[0], lanes[1]), pick(lanes[2], lanes[3]));
    for shift in [
        _mm256_setr_epi32(4, 5, 6, 7, 0, 1, 2, 3),
        _mm256_setr_epi32(2, 3, 0, 1, 6, 7, 4, 5),
        _mm256_setr_epi32(1, 0, 3, 2, 5, 4, 7, 6),
    ] {
        let other = (
            _mm256_permutevar8x32_ps(v.0, shift),
            _mm256_permutevar8x32_epi32(v.1, shift),
        );
        v = pick(v, other);
    }
    let (d, j) = (_mm256_cvtss_f32(v.0), _mm256_cvtsi256_si32(v.1) as usize);
    if d < f32::INFINITY {
        (j, d)
    } else {
        (0, f32::INFINITY)
    }
}
