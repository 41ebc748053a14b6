//! The matrix-product kernels under [`crate::matrix::Matrix`] — the arithmetic of every
//! `usp-nn` forward and backward pass, and so of every trained model's bits.
//!
//! Like the scan kernels in [`crate::kernel`], what is fixed here is the **arithmetic**,
//! not the instructions (DESIGN.md §2.2). It is a second contract, older than the scan's
//! and deliberately not unified with it: every model ever trained by this tree was
//! trained on [`dot`]'s 4-lane order, and a router trained on the scan's 8-lane order is
//! a different router.
//!
//! * `A·Bᵀ` ([`abt`], the forward GEMM): every output is [`dot`] of a row of `A` with a
//!   row of `B` — four accumulators, lane `l` taking elements `l, l + 4, …` in order,
//!   one `mul` then one `add` per term (no FMA), combined as `((s0 + s1) + s2) + s3`,
//!   then `+ rest`, the `k % 4` tail summed in order. [`abt_portable`] is that sentence
//!   as a loop over `dot`: what every non-x86-64 host runs and the oracle of the
//!   proptest below. On x86-64 the four lanes are one SSE2 register (baseline there, so
//!   there is nothing to detect or dispatch), and eight rows of `B` share each load of
//!   the row of `A` — eight independent add chains in flight where the per-element loop
//!   has one.
//! * `Aᵀ·B` and `A·B` ([`accumulate_rows`], the backward GEMMs): output row `r` is
//!   `Σ_p a(r, p) · B.row(p)`, terms added in ascending `p`, a term whose `a(r, p)` is
//!   `0.0` skipped. Blocking over output rows changes which row of `B` is in cache, not
//!   the order any one output sees its terms in.
//!
//! This is a leaf module: [`crate::matrix`] imports it, and it imports nothing.

/// Dot product of two equal-length slices, in the order the module docs fix.
///
/// # Panics
/// If the lengths differ.
#[inline]
pub fn dot(a: &[f32], b: &[f32]) -> f32 {
    assert_eq!(a.len(), b.len(), "dot: lengths differ");
    // Unrolled-by-4 accumulation: lets LLVM vectorise without relying on fast-math.
    let chunks = a.len() / 4;
    let (mut s0, mut s1, mut s2, mut s3) = (0.0f32, 0.0f32, 0.0f32, 0.0f32);
    for c in 0..chunks {
        let i = c * 4;
        s0 += a[i] * b[i];
        s1 += a[i + 1] * b[i + 1];
        s2 += a[i + 2] * b[i + 2];
        s3 += a[i + 3] * b[i + 3];
    }
    let mut rest = 0.0f32;
    for i in chunks * 4..a.len() {
        rest += a[i] * b[i];
    }
    s0 + s1 + s2 + s3 + rest
}

/// The one shape check of a product: the raw-pointer loop under [`abt`] relies on it and
/// on nothing else.
#[inline]
fn assert_abt_shape(a: &[f32], b: &[f32], rows: usize, k: usize, m: usize, out: &[f32]) {
    assert!(
        a.len() == rows * k && b.len() == m * k && out.len() == rows * m,
        "abt: {} / {} / {} floats are not ({rows}x{k}) * ({m}x{k})^T -> {rows}x{m}",
        a.len(),
        b.len(),
        out.len()
    );
}

/// `out = A·Bᵀ` for row-major `A` (`rows × k`), `B` (`m × k`) and `out` (`rows × m`):
/// `out[i·m + j]` has the bits of `dot(A.row(i), B.row(j))`.
///
/// # Panics
/// If a slice is not as long as its shape says.
#[inline]
pub fn abt(a: &[f32], b: &[f32], rows: usize, k: usize, m: usize, out: &mut [f32]) {
    #[cfg(target_arch = "x86_64")]
    {
        assert_abt_shape(a, b, rows, k, m, out);
        for i in 0..rows {
            // SAFETY: SSE2 is part of the x86-64 baseline. By the assert above, row `i`
            // of `a` is `k` floats at `i * k`, `b` is `m` rows of `k` floats, and row `i`
            // of `out` is `m` floats at `i * m`.
            unsafe {
                let (a_row, out_row) = (a.as_ptr().add(i * k), out.as_mut_ptr().add(i * m));
                sse2::row_times_bt(a_row, b.as_ptr(), k, m, out_row);
            }
        }
    }
    #[cfg(not(target_arch = "x86_64"))]
    abt_portable(a, b, rows, k, m, out);
}

/// [`abt`] one [`dot`] per output: the portable form and the blocked kernel's oracle.
///
/// # Panics
/// As [`abt`].
pub fn abt_portable(a: &[f32], b: &[f32], rows: usize, k: usize, m: usize, out: &mut [f32]) {
    assert_abt_shape(a, b, rows, k, m, out);
    for i in 0..rows {
        for j in 0..m {
            out[i * m + j] = dot(&a[i * k..(i + 1) * k], &b[j * k..(j + 1) * k]);
        }
    }
}

#[cfg(target_arch = "x86_64")]
mod sse2 {
    use std::arch::x86_64::*;

    /// Rows of `B` that share one load of the row of `A`.
    const BLOCK: usize = 8;

    /// `dot`'s lane combine for four accumulators at once: lane `n` of the result is
    /// `((s0 + s1) + s2) + s3` of `acc[n]`.
    #[inline]
    #[target_feature(enable = "sse2")]
    fn combine4(acc: [__m128; 4]) -> __m128 {
        // A 4x4 transpose: `s[l]` holds lane `l` of each accumulator.
        let lo01 = _mm_unpacklo_ps(acc[0], acc[1]);
        let lo23 = _mm_unpacklo_ps(acc[2], acc[3]);
        let hi01 = _mm_unpackhi_ps(acc[0], acc[1]);
        let hi23 = _mm_unpackhi_ps(acc[2], acc[3]);
        let s0 = _mm_movelh_ps(lo01, lo23);
        let s1 = _mm_movehl_ps(lo23, lo01);
        let s2 = _mm_movelh_ps(hi01, hi23);
        let s3 = _mm_movehl_ps(hi23, hi01);
        _mm_add_ps(_mm_add_ps(_mm_add_ps(s0, s1), s2), s3)
    }

    /// The 4-lane accumulators of `dot(a, row n of b)` and its `k % 4` tail sum, for `N`
    /// consecutive `k`-float rows at `b`.
    ///
    /// # Safety
    /// `a` valid for `k` reads and `b` for `N * k`.
    #[inline]
    #[target_feature(enable = "sse2")]
    unsafe fn accumulate<const N: usize>(
        a: *const f32,
        b: *const f32,
        k: usize,
    ) -> ([__m128; N], [f32; N]) {
        let full = k & !3;
        let mut acc = [_mm_setzero_ps(); N];
        let mut p = 0;
        while p < full {
            let av = _mm_loadu_ps(a.add(p));
            for n in 0..N {
                let bv = _mm_loadu_ps(b.add(n * k + p));
                acc[n] = _mm_add_ps(acc[n], _mm_mul_ps(av, bv));
            }
            p += 4;
        }
        let mut rest = [0.0f32; N];
        for p in full..k {
            for n in 0..N {
                rest[n] += *a.add(p) * *b.add(n * k + p);
            }
        }
        (acc, rest)
    }

    /// `out[n] = dot(a, row n of b)` for `N` rows, `N` a multiple of four.
    ///
    /// # Safety
    /// As [`accumulate`], and `out` valid for `N` writes.
    #[inline]
    #[target_feature(enable = "sse2")]
    unsafe fn dots<const N: usize>(a: *const f32, b: *const f32, k: usize, out: *mut f32) {
        const { assert!(N.is_multiple_of(4)) };
        let (acc, rest) = accumulate::<N>(a, b, k);
        for g in (0..N).step_by(4) {
            let lanes = combine4([acc[g], acc[g + 1], acc[g + 2], acc[g + 3]]);
            let tails = _mm_loadu_ps(rest.as_ptr().add(g));
            _mm_storeu_ps(out.add(g), _mm_add_ps(lanes, tails));
        }
    }

    /// `out[j] = dot(a, row j of b)` for all `m` rows of `b`: eight at a time, then four,
    /// then singly.
    ///
    /// # Safety
    /// `a` valid for `k` reads, `b` for `m * k`, `out` for `m` writes.
    #[inline]
    #[target_feature(enable = "sse2")]
    pub(super) unsafe fn row_times_bt(
        a: *const f32,
        b: *const f32,
        k: usize,
        m: usize,
        out: *mut f32,
    ) {
        let mut j = 0;
        while j + BLOCK <= m {
            dots::<BLOCK>(a, b.add(j * k), k, out.add(j));
            j += BLOCK;
        }
        if j + 4 <= m {
            dots::<4>(a, b.add(j * k), k, out.add(j));
            j += 4;
        }
        while j < m {
            let ([acc], [rest]) = accumulate::<1>(a, b.add(j * k), k);
            let mut s = [0.0f32; 4];
            _mm_storeu_ps(s.as_mut_ptr(), acc);
            *out.add(j) = s[0] + s[1] + s[2] + s[3] + rest;
            j += 1;
        }
    }
}

/// `out.row(r) += Σ_p a(r, p) · B.row(p)` for every `m`-float row `r` of `out` and every
/// `m`-float row `p` of `b`, `p` ascending, a term whose `a(r, p)` is `0.0` skipped — the
/// per-element order of `Matrix::matmul` and `Matrix::transpose_matmul`, which differ
/// only in where `a(r, p)` lives. Each row of `B` is read once per call, not once per
/// output row, so callers pass a block of output rows small enough to stay in L1.
///
/// # Panics
/// If `b` or `out` is not whole rows of `m` floats.
pub fn accumulate_rows(a: impl Fn(usize, usize) -> f32, b: &[f32], m: usize, out: &mut [f32]) {
    assert!(
        m > 0 && b.len().is_multiple_of(m) && out.len().is_multiple_of(m),
        "accumulate_rows: {} / {} floats are not whole rows of {m}",
        b.len(),
        out.len()
    );
    for (p, b_row) in b.chunks_exact(m).enumerate() {
        for (r, out_row) in out.chunks_exact_mut(m).enumerate() {
            let av = a(r, p);
            if av == 0.0 {
                continue;
            }
            for (o, &bv) in out_row.iter_mut().zip(b_row) {
                *o += av * bv;
            }
        }
    }
}

#[cfg(test)]
pub(crate) mod tests {
    use super::*;
    use proptest::prelude::*;

    // The length checks are `assert!`s, not `debug_assert!`s: `cargo test --release`
    // runs these too, and a longer `b` must not be scored as a prefix there.
    #[test]
    #[should_panic(expected = "lengths differ")]
    fn dot_panics_on_a_short_b() {
        dot(&[1.0; 8], &[1.0; 7]);
    }

    #[test]
    #[should_panic(expected = "lengths differ")]
    fn dot_panics_on_a_long_b() {
        dot(&[1.0; 8], &[1.0; 9]);
    }

    #[test]
    fn abt_panics_on_every_wrong_length() {
        let run = |a: usize, b: usize, out: usize| {
            std::panic::catch_unwind(|| {
                abt(&vec![0.0; a], &vec![0.0; b], 2, 3, 4, &mut vec![0.0; out])
            })
        };
        assert!(run(6, 12, 8).is_ok());
        for (a, b, out) in [
            (5, 12, 8),
            (7, 12, 8),
            (6, 11, 8),
            (6, 13, 8),
            (6, 12, 7),
            (6, 12, 9),
        ] {
            assert!(
                run(a, b, out).is_err(),
                "abt accepted {a} / {b} / {out} floats"
            );
            let portable = std::panic::catch_unwind(|| {
                abt_portable(&vec![0.0; a], &vec![0.0; b], 2, 3, 4, &mut vec![0.0; out])
            });
            assert!(
                portable.is_err(),
                "abt_portable accepted {a} / {b} / {out} floats"
            );
        }
    }

    /// The non-ordinary values the product proptests seed their operands with.
    pub(crate) fn special(class: u8) -> f32 {
        match class {
            0 => f32::NAN,
            1 => f32::INFINITY,
            2 => f32::NEG_INFINITY,
            3 => 0.0,
            _ => -0.0,
        }
    }

    /// Bit equality, except that *which* NaN is unspecified (as for the scan kernels).
    pub(crate) fn same(a: f32, b: f32) -> bool {
        a.to_bits() == b.to_bits() || (a.is_nan() && b.is_nan())
    }

    /// Every `k % 4` tail (and `k < 4`) against every remainder of the eight- and four-row
    /// blocks, exhaustively — the proptest below samples the same space at larger `k`.
    #[test]
    fn blocked_abt_matches_dot_on_every_small_shape() {
        let values = crate::rng::normal_vector(&mut crate::rng::seeded(7), 3 * 13 + 19 * 13);
        for k in 0..=13 {
            for m in 0..=19 {
                let (a, b) = (&values[..3 * k], &values[3 * 13..3 * 13 + m * k]);
                let (mut want, mut got) = (vec![0.0f32; 3 * m], vec![f32::NAN; 3 * m]);
                abt_portable(a, b, 3, k, m, &mut want);
                abt(a, b, 3, k, m, &mut got);
                let bits = |v: &[f32]| v.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
                assert_eq!(bits(&want), bits(&got), "k={k} m={m}");
            }
        }
    }

    proptest! {
        /// The blocked `A·Bᵀ` against its oracle, one `dot` per output: the same bits.
        /// `k` covers every `k % 4` tail, `m` every remainder of the eight- and
        /// four-row blocks, `A` starts one float into the allocation and `B` three floats
        /// past the end of `A` so loads are unaligned, and both are seeded with NaN, ±∞
        /// and ±0.0.
        #[test]
        fn blocked_abt_matches_per_element_dot_bit_for_bit(
            k in 1usize..=200,
            m in 0usize..=19,
            rows in 0usize..=9,
            seed in 0u64..1 << 40,
            specials in prop::collection::vec((0usize..1 << 20, 0u8..5), 0..8),
        ) {
            if cfg!(not(target_arch = "x86_64")) {
                static REPORT: std::sync::Once = std::sync::Once::new();
                REPORT.call_once(|| {
                    eprintln!("SKIPPED blocked_abt_matches_per_element_dot_bit_for_bit: this target has no blocked GEMM; `abt` is the per-element loop")
                });
                return Ok(());
            }
            let mut values = crate::rng::normal_vector(&mut crate::rng::seeded(seed), 4 + (rows + m) * k);
            for &(at, class) in &specials {
                let at = at % values.len();
                values[at] = special(class);
            }
            let (a, b) = (&values[1..1 + rows * k], &values[4 + rows * k..]);
            let (mut want, mut got) = (vec![0.0f32; rows * m], vec![f32::NAN; rows * m]);
            abt_portable(a, b, rows, k, m, &mut want);
            abt(a, b, rows, k, m, &mut got);
            for (at, (&w, &g)) in want.iter().zip(&got).enumerate() {
                prop_assert!(
                    same(w, g),
                    "k={k} m={m} output ({}, {}): dot {w:?} ({:#x}) vs blocked {g:?} ({:#x})",
                    at / m, at % m, w.to_bits(), g.to_bits()
                );
            }
        }
    }
}
