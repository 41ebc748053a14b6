//! The matrix-product kernels under [`crate::matrix::Matrix`] — the arithmetic of every
//! `usp-nn` forward and backward pass, and so of every trained model's bits.
//!
//! Like the scan kernels in [`crate::kernel`], what is fixed here is the **arithmetic**,
//! not the instructions (DESIGN.md §2.2). It is a second contract, older than the scan's
//! and deliberately not unified with it: every model ever trained by this tree was
//! trained on [`dot`]'s 4-lane order, and a router trained on the scan's 8-lane order is
//! a different router. The two contracts do share their forms and the detection that
//! picks one ([`Backend::detect`]): a portable one, and an AVX2 one on x86-64 hosts that
//! report it, proptested against the portable one bit for bit.
//!
//! * `A·Bᵀ` ([`abt`], the forward GEMM): every output is [`dot`] of a row of `A` with a
//!   row of `B` — four accumulators, lane `l` taking elements `l, l + 4, …` in order,
//!   one `mul` then one `add` per term (no FMA), combined as `((s0 + s1) + s2) + s3`,
//!   then `+ rest`, the `k % 4` tail summed in order. [`abt_portable`] is that sentence
//!   as a loop over `dot`: what a host without AVX2 runs and the oracle of the proptest
//!   below. The AVX2 form holds two outputs' four lanes in one `__m256`, reads `B` from
//!   a [`PackedBt`] (a layer packs its weight once per optimizer step, not per product)
//!   and passes two rows of `A` over each panel of eight rows of `B`.
//! * `Aᵀ·B` and `A·B` ([`accumulate_rows`], the backward GEMMs): output row `r` is
//!   `Σ_p a(r, p) · B.row(p)`, terms added in ascending `p`, a term whose `a(r, p)` is
//!   `0.0` skipped. The AVX2 form keeps a tile of 4 rows × 16 columns in registers for
//!   the whole sum; tiling changes which outputs are in flight, not the order any one
//!   output sees its terms in.

#[cfg(target_arch = "x86_64")]
mod avx2;

use crate::kernel_backend::Backend;

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

/// The one shape check of a product: the raw-pointer loops under [`abt`] rely on it and
/// on nothing else.
#[inline]
fn assert_abt_shape(a: &[f32], b: usize, rows: usize, k: usize, m: usize, out: &[f32]) {
    assert!(
        a.len() == rows * k && b == m * k && out.len() == rows * m,
        "abt: {} / {b} / {} floats are not ({rows}x{k}) * ({m}x{k})^T -> {rows}x{m}",
        a.len(),
        out.len()
    );
}

/// The right-hand side of `A·Bᵀ`, `B` (`m × k`, row-major), laid out for this host's
/// form of [`abt`]: a copy of `B` where that form is the portable one, panels of eight
/// rows two to a register where it is AVX2. Packing costs one pass over `B`; a layer
/// whose weight is `B` keeps one and repacks it when the weight changes.
#[derive(Debug, Clone, PartialEq)]
pub struct PackedBt {
    backend: Backend,
    m: usize,
    k: usize,
    data: Vec<f32>,
}

impl PackedBt {
    /// Packs `b`, `m` rows of `k` floats.
    ///
    /// # Panics
    /// If `b.len() != m * k`.
    pub fn new(b: &[f32], m: usize, k: usize) -> Self {
        assert_eq!(
            b.len(),
            m * k,
            "PackedBt: {} floats are not {m}x{k}",
            b.len()
        );
        let backend = Backend::detect();
        let data = match backend {
            Backend::Portable => b.to_vec(),
            #[cfg(target_arch = "x86_64")]
            Backend::Avx2 => avx2::pack(b, m, k),
        };
        Self {
            backend,
            m,
            k,
            data,
        }
    }

    /// Rows of `B`: the outputs per row of `A`.
    pub fn rows(&self) -> usize {
        self.m
    }

    /// Columns of `B`: the length of every dot product.
    pub fn cols(&self) -> usize {
        self.k
    }

    /// The form of [`abt`] this packing is for: the host's [`Backend::detect`].
    pub fn backend(&self) -> Backend {
        self.backend
    }
}

/// `out = A·Bᵀ` for row-major `A` (`rows × k`), `B` (`m × k`) and `out` (`rows × m`):
/// `out[i·m + j]` has the bits of `dot(A.row(i), B.row(j))`.
///
/// # Panics
/// If a slice is not as long as its shape says.
pub fn abt(a: &[f32], b: &[f32], rows: usize, k: usize, m: usize, out: &mut [f32]) {
    assert_abt_shape(a, b.len(), rows, k, m, out);
    abt_packed(a, rows, &PackedBt::new(b, m, k), out);
}

/// [`abt`] against a `B` packed beforehand.
///
/// # Panics
/// If `a` is not `rows` rows of `b.cols()` floats or `out` not `rows` rows of
/// `b.rows()`.
pub fn abt_packed(a: &[f32], rows: usize, b: &PackedBt, out: &mut [f32]) {
    let (m, k) = (b.m, b.k);
    assert_abt_shape(a, m * k, rows, k, m, out);
    match b.backend {
        Backend::Portable => abt_portable(a, &b.data, rows, k, m, out),
        #[cfg(target_arch = "x86_64")]
        Backend::Avx2 => {
            // SAFETY: `Avx2` is only ever built by `Backend::detect` on a host that
            // reports the feature. By the assert above `a` is `rows * k` floats and `out`
            // `rows * m`, and `avx2::pack` made `data` `ceil(m / 8) * 8 * k` floats.
            unsafe { avx2::abt(a.as_ptr(), rows, k, m, b.data.as_ptr(), out.as_mut_ptr()) }
        }
    }
}

/// [`abt`] one [`dot`] per output: the portable form and the AVX2 kernel's oracle.
///
/// # Panics
/// As [`abt`].
pub fn abt_portable(a: &[f32], b: &[f32], rows: usize, k: usize, m: usize, out: &mut [f32]) {
    assert_abt_shape(a, b.len(), rows, k, m, out);
    for i in 0..rows {
        for j in 0..m {
            out[i * m + j] = dot(&a[i * k..(i + 1) * k], &b[j * k..(j + 1) * k]);
        }
    }
}

/// The one shape check of a backward product: returns the number of terms (rows of `b`)
/// and output rows after checking that every `a(r, p)` is inside `a`.
fn backward_shape(
    a: &[f32],
    (row_stride, p_stride): (usize, usize),
    b: &[f32],
    m: usize,
    out: &[f32],
) -> (usize, usize) {
    assert!(
        m > 0 && b.len().is_multiple_of(m) && out.len().is_multiple_of(m),
        "accumulate_rows: {} / {} floats are not whole rows of {m}",
        b.len(),
        out.len()
    );
    let (terms, rows) = (b.len() / m, out.len() / m);
    if terms > 0 && rows > 0 {
        let last = (rows - 1) * row_stride + (terms - 1) * p_stride;
        assert!(
            last < a.len(),
            "accumulate_rows: a({}, {}) is at {last}, past the {} coefficients",
            rows - 1,
            terms - 1,
            a.len()
        );
    }
    (terms, rows)
}

/// `out.row(r) += Σ_p a(r, p) · B.row(p)` for every `m`-float row `r` of `out` and every
/// `m`-float row `p` of `b`, `p` ascending, a term whose `a(r, p)` is `0.0` skipped — the
/// per-element order of `Matrix::matmul` and `Matrix::transpose_matmul`, which differ
/// only in where `a(r, p) = a[r · strides.0 + p · strides.1]` lives.
///
/// # Panics
/// If `b` or `out` is not whole rows of `m` floats, or a coefficient is out of `a`.
pub fn accumulate_rows(a: &[f32], strides: (usize, usize), b: &[f32], m: usize, out: &mut [f32]) {
    let (terms, rows) = backward_shape(a, strides, b, m, out);
    let done = match Backend::detect() {
        Backend::Portable => 0,
        #[cfg(target_arch = "x86_64")]
        // SAFETY: the host reports AVX2 (`Backend::detect`). By `backward_shape`, `b` is
        // `terms` rows and `out` `rows` rows of `m` floats, and every `a(r, p)` with
        // `r < rows` and `p < terms` is inside `a`.
        Backend::Avx2 => unsafe {
            avx2::accumulate_rows(
                a.as_ptr(),
                strides,
                b.as_ptr(),
                terms,
                m,
                rows,
                out.as_mut_ptr(),
            )
        },
    };
    accumulate_columns(a, strides, b, m, out, done);
}

/// [`accumulate_rows`] over the columns `first..m` alone, in the per-row loop: the
/// portable form (from column 0) and the AVX2 form's `m % 8` columns.
fn accumulate_columns(
    a: &[f32],
    (row_stride, p_stride): (usize, usize),
    b: &[f32],
    m: usize,
    out: &mut [f32],
    first: usize,
) {
    if first == m {
        return;
    }
    for (p, b_row) in b.chunks_exact(m).enumerate() {
        for (r, out_row) in out.chunks_exact_mut(m).enumerate() {
            let av = a[r * row_stride + p * p_stride];
            if av == 0.0 {
                continue;
            }
            for (o, &bv) in out_row[first..].iter_mut().zip(&b_row[first..]) {
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

    /// Every `k % 4` tail (and `k < 4`) against every remainder of the eight-row panel and
    /// both row parities, exhaustively — the proptest below samples the same space at
    /// larger `k`.
    #[test]
    fn blocked_abt_matches_dot_on_every_small_shape() {
        let values = crate::rng::normal_vector(&mut crate::rng::seeded(7), 3 * 13 + 19 * 13);
        for rows in [2, 3] {
            for k in 0..=13 {
                for m in 0..=19 {
                    let (a, b) = (&values[..rows * k], &values[3 * 13..3 * 13 + m * k]);
                    let (mut want, mut got) = (vec![0.0f32; rows * m], vec![f32::NAN; rows * m]);
                    abt_portable(a, b, rows, k, m, &mut want);
                    abt(a, b, rows, k, m, &mut got);
                    let bits = |v: &[f32]| v.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
                    assert_eq!(bits(&want), bits(&got), "rows={rows} k={k} m={m}");
                }
            }
        }
    }

    /// The host has no AVX2: say so once, as the scan's proptest does.
    fn portable_host_reports_skip(test: &str) -> bool {
        if Backend::detect() != Backend::Portable {
            return false;
        }
        static REPORT: std::sync::Once = std::sync::Once::new();
        REPORT.call_once(|| {
            eprintln!("SKIPPED {test}: this host has no AVX2; the products run their portable form")
        });
        true
    }

    /// `out += A·B` one output row at a time, terms in ascending `p`, zero coefficients
    /// skipped: the order every form of [`accumulate_rows`] keeps.
    fn per_row_loop(a: &[f32], (rs, ps): (usize, usize), b: &[f32], m: usize, out: &mut [f32]) {
        for (r, out_row) in out.chunks_exact_mut(m).enumerate() {
            for (p, b_row) in b.chunks_exact(m).enumerate() {
                let av = a[r * rs + p * ps];
                if av == 0.0 {
                    continue;
                }
                for (o, &bv) in out_row.iter_mut().zip(b_row) {
                    *o += av * bv;
                }
            }
        }
    }

    #[test]
    fn accumulate_rows_refuses_a_coefficient_past_the_end() {
        let run = |a: usize, strides: (usize, usize)| {
            std::panic::catch_unwind(|| {
                accumulate_rows(&vec![1.0; a], strides, &[1.0; 6], 3, &mut [0.0; 12])
            })
        };
        // 4 output rows, 2 terms: a(3, 1) is at 3 * 2 + 1 (row-major) or 3 + 1 * 4.
        assert!(run(8, (2, 1)).is_ok());
        assert!(run(7, (2, 1)).is_err());
        assert!(run(8, (1, 4)).is_ok());
        assert!(run(7, (1, 4)).is_err());
    }

    proptest! {
        /// The blocked `A·Bᵀ` against its oracle, one `dot` per output: the same bits.
        /// `k` covers every `k % 4` tail, `m` every remainder of the eight-row panel and
        /// `rows` both parities of the two-row pass; `A` starts one float into the
        /// allocation and `B` three floats past the end of `A` so loads are unaligned,
        /// and both are seeded with NaN, ±∞ and ±0.0.
        #[test]
        fn blocked_abt_matches_per_element_dot_bit_for_bit(
            k in 1usize..=200,
            m in 0usize..=25,
            rows in 0usize..=9,
            seed in 0u64..1 << 40,
            specials in prop::collection::vec((0usize..1 << 20, 0u8..5), 0..8),
        ) {
            if portable_host_reports_skip("blocked_abt_matches_per_element_dot_bit_for_bit") {
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

    /// Every remainder of the 4-row × 16-column tile, exhaustively, both coefficient
    /// layouts, with zero coefficients in every row and a non-finite `b` beside them —
    /// the proptest below samples the same space with more terms.
    #[test]
    fn tiled_backward_products_match_the_per_row_loop_on_every_tile_remainder() {
        let values = crate::rng::normal_vector(&mut crate::rng::seeded(11), 13 * 7 + 7 * 40);
        for rows in 0..=13 {
            for m in 1..=40 {
                let terms = 7;
                let mut a = values[..rows * terms].to_vec();
                let mut b = values[13 * 7..13 * 7 + terms * m].to_vec();
                for (i, v) in a.iter_mut().enumerate() {
                    if i % 5 == 2 {
                        *v = 0.0;
                    }
                }
                b[m / 2] = f32::INFINITY;
                b[terms * m - 1] = f32::NAN;
                for strides in [(terms, 1), (1, rows)] {
                    let (mut want, mut got) = (vec![0.5f32; rows * m], vec![0.5f32; rows * m]);
                    per_row_loop(&a, strides, &b, m, &mut want);
                    accumulate_rows(&a, strides, &b, m, &mut got);
                    for (at, (&w, &g)) in want.iter().zip(&got).enumerate() {
                        assert!(
                            same(w, g),
                            "rows={rows} m={m} {strides:?} at {at}: {w:?} vs {g:?}"
                        );
                    }
                }
            }
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(256))]

        /// The tiled backward products against the per-row loop: the same bits, for every
        /// remainder of the 4-row × 16-column tile (and the `m % 8` columns the loop
        /// keeps), coefficients laid out both ways (`A·B` row-major, `Aᵀ·B` down the
        /// columns), every operand starting an odd number of floats into its allocation,
        /// zero coefficients beside NaN, ±∞ and ±0.0 in both operands, and an `out` that
        /// does not start at zero.
        #[test]
        fn tiled_backward_products_match_the_per_row_loop(
            rows in 0usize..=13,
            m in 1usize..=40,
            terms in 0usize..=70,
            seed in 0u64..1 << 40,
            zeros in prop::collection::vec(0usize..1 << 20, 0..40),
            specials in prop::collection::vec((0usize..1 << 20, 0u8..5), 0..10),
        ) {
            let mut rng = crate::rng::seeded(seed);
            let values = crate::rng::normal_vector(&mut rng, 1 + rows * terms + 3 + terms * m + 5 + rows * m);
            let (a, rest) = values[1..].split_at(rows * terms);
            let (b, rest) = rest[3..].split_at(terms * m);
            let (mut a, mut b, start) = (a.to_vec(), b.to_vec(), &rest[5..]);
            for (i, &(at, class)) in specials.iter().enumerate() {
                let target = if i % 2 == 0 { &mut a } else { &mut b };
                if !target.is_empty() {
                    let at = at % target.len();
                    target[at] = special(class);
                }
            }
            for &at in &zeros {
                if !a.is_empty() {
                    let at = at % a.len();
                    a[at] = 0.0;
                }
            }
            // The seed's low bit picks the layout (the shim takes six strategies at most).
            let transposed = seed % 2 == 1;
            let strides = if transposed { (1, rows) } else { (terms, 1) };
            // Operands one and three floats into their buffers, so no load is aligned.
            let mut a_buf = vec![0.0f32; 1 + a.len()];
            a_buf[1..].copy_from_slice(&a);
            let mut b_buf = vec![0.0f32; 3 + b.len()];
            b_buf[3..].copy_from_slice(&b);
            let mut out_buf = vec![0.0f32; 1 + start.len()];
            out_buf[1..].copy_from_slice(start);
            let mut want = start.to_vec();
            per_row_loop(&a, strides, &b, m, &mut want);
            accumulate_rows(&a_buf[1..], strides, &b_buf[3..], m, &mut out_buf[1..]);
            for (at, (&w, &g)) in want.iter().zip(&out_buf[1..]).enumerate() {
                prop_assert!(
                    same(w, g),
                    "{rows}x{terms}*{terms}x{m} (transposed {transposed}) at ({}, {}): {w:?} vs {g:?}",
                    at / m, at % m
                );
            }
        }
    }
}
