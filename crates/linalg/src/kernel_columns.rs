//! The codebooks' column kernels — DESIGN.md §2.2's third arithmetic contract: one
//! vector against many points, each distance [`squared_euclidean`]'s serial chain.
//!
//! K-means (its assignment step and seeding), PQ encoding and the squared-Euclidean ADC
//! table score one vector against the `m` points of a codebook or dataset stored
//! column-major — `q.len()` rows of `m` floats, coordinate `t` of point `j` at
//! `columns[t * m + j]` — so that **lane = point**: each lane runs one point's chain,
//! `(q[t] − c[t])²` added to `0.0` for `t` ascending, one `sub`, one `mul` and one
//! `add` per coordinate, no FMA. Which points run side by side is the only freedom, so
//! every output has the bits of one [`squared_euclidean`] call.
//!
//! As for the scan's kernels and the GEMMs, the arithmetic is the contract and the
//! instructions are not. [`Backend::detect`] picks the form per call: the portable
//! one ([`squared_euclidean_to_columns_portable`], [`nearest_column_portable`]:
//! sixteen lanes as four groups of four, which LLVM vectorises on the SSE2 baseline),
//! or on x86-64 hosts that report AVX2 the `avx2` submodule's, 32 lanes in four
//! `__m256` registers with [`nearest_column`]'s running minima and their block numbers
//! in registers too. The portable form is what every other host runs and the oracle
//! the AVX2 form is proptested against, bit for bit.
//!
//! [`squared_euclidean`]: crate::distance::squared_euclidean

#[cfg(target_arch = "x86_64")]
mod avx2;

use std::hint::select_unpredictable;

use crate::kernel_backend::Backend;

/// Lanes per group: one baseline (SSE2 / NEON) register of `f32`.
const GROUP: usize = 4;
/// Groups per register block: four independent add chains per coordinate.
const GROUPS: usize = 4;
/// Points per register block of the portable forms.
const COLUMN_BLOCK: usize = GROUP * GROUPS;

/// Sixteen lanes as four groups of four, lane `GROUP * g + l` at `[g][l]`: the shape LLVM
/// turns into four registers without regrouping lanes across them.
type Lanes = [[f32; GROUP]; GROUPS];

/// The one shape check of the column kernels: the raw-pointer loops of the AVX2 form
/// rely on it and on nothing else.
#[inline]
fn assert_columns_shape(q: &[f32], columns: &[f32], m: usize) {
    assert!(
        q.len().checked_mul(m) == Some(columns.len()),
        "column kernel: {} floats are not {} rows of {m} points",
        columns.len(),
        q.len()
    );
}

/// The squared distances from `q` to the 16 points of columns `j..j + 16`: lane `l` is
/// the serial chain for point `j + l`, sixteen chains in flight.
#[inline(always)]
fn column_block(q: &[f32], columns: &[f32], m: usize, j: usize) -> Lanes {
    let mut acc = [[0.0f32; GROUP]; GROUPS];
    for (t, &qt) in q.iter().enumerate() {
        let c = &columns[t * m + j..t * m + j + COLUMN_BLOCK];
        for (g, acc) in acc.iter_mut().enumerate() {
            for (l, a) in acc.iter_mut().enumerate() {
                let d = qt - c[GROUP * g + l];
                *a += d * d;
            }
        }
    }
    acc
}

/// The serial chain from `q` to the single point in column `j`.
#[inline]
fn column_one(q: &[f32], columns: &[f32], m: usize, j: usize) -> f32 {
    let mut acc = 0.0f32;
    for (t, &qt) in q.iter().enumerate() {
        let d = qt - columns[t * m + j];
        acc += d * d;
    }
    acc
}

/// `out[j] = squared_euclidean(q, point j)` for the `m = out.len()` points stored
/// column-major in `columns` (see the module docs), on this host's form.
///
/// # Panics
/// If `columns` is not `q.len() * out.len()` floats.
pub fn squared_euclidean_to_columns(q: &[f32], columns: &[f32], out: &mut [f32]) {
    assert_columns_shape(q, columns, out.len());
    match Backend::detect() {
        Backend::Portable => squared_euclidean_to_columns_portable(q, columns, out),
        #[cfg(target_arch = "x86_64")]
        // SAFETY: the host reports AVX2 (`Backend::detect`), and by the assert above
        // `columns` is `q.len()` rows of `out.len()` floats.
        Backend::Avx2 => unsafe {
            avx2::to_columns(q, columns.as_ptr(), out.len(), out.as_mut_ptr())
        },
    }
}

/// The nearest of the `m` points stored column-major in `columns` and its squared
/// distance, on this host's form: the result of the scalar loop
/// `if squared_euclidean(q, point j) < best` over `j` ascending from `(0, +∞)` — the
/// first minimum wins, a NaN distance never wins, and when no distance is below `+∞`
/// (all NaN or infinite, or `m == 0`) the answer is `(0, +∞)`.
///
/// # Panics
/// If `columns` is not `q.len() * m` floats.
pub fn nearest_column(q: &[f32], columns: &[f32], m: usize) -> (usize, f32) {
    assert_columns_shape(q, columns, m);
    match Backend::detect() {
        Backend::Portable => nearest_column_portable(q, columns, m),
        #[cfg(target_arch = "x86_64")]
        // SAFETY: the host reports AVX2 (`Backend::detect`), and by the assert above
        // `columns` is `q.len()` rows of `m` floats.
        Backend::Avx2 => unsafe { avx2::nearest_column(q, columns.as_ptr(), m) },
    }
}

/// [`squared_euclidean_to_columns`] in portable Rust: sixteen points' chains side by
/// side, then one chain per point past the last whole block. The form a host without
/// AVX2 runs and the AVX2 form's oracle.
///
/// Never inlined: whether LLVM vectorises the block loop is decided per inlined copy, so
/// every caller runs the one copy that was measured. The same holds for
/// [`nearest_column_portable`].
///
/// # Panics
/// As [`squared_euclidean_to_columns`].
#[inline(never)]
pub fn squared_euclidean_to_columns_portable(q: &[f32], columns: &[f32], out: &mut [f32]) {
    let m = out.len();
    assert_columns_shape(q, columns, m);
    let full = m - m % COLUMN_BLOCK;
    for (j, block) in (0..full)
        .step_by(COLUMN_BLOCK)
        .zip(out.chunks_exact_mut(COLUMN_BLOCK))
    {
        block.copy_from_slice(column_block(q, columns, m, j).as_flattened());
    }
    for (j, o) in out.iter_mut().enumerate().skip(full) {
        *o = column_one(q, columns, m, j);
    }
}

/// [`nearest_column`] in portable Rust, the AVX2 form's oracle. Each of the 16 lanes
/// keeps a running minimum of its own points (`j ≡ l mod 16`, so within a lane the
/// first minimum is the lowest index); the lanes are then reduced by distance with ties
/// to the lowest index, which is the scalar loop's winner, and the loop's rule runs on
/// over the points past the last whole block.
///
/// # Panics
/// As [`nearest_column`].
#[inline(never)]
pub fn nearest_column_portable(q: &[f32], columns: &[f32], m: usize) -> (usize, f32) {
    assert_columns_shape(q, columns, m);
    // A lane's block number is an `f32` (exact below 2²⁴), so both of its updates are
    // float blends on the compare's own mask. `select_unpredictable` keeps LLVM from
    // turning them into sixteen branches, which mispredict on real data (2.5× slower).
    let blocks = m / COLUMN_BLOCK;
    assert!(blocks < 1 << 24, "nearest_column: {m} points");
    let mut best_d = [[f32::INFINITY; GROUP]; GROUPS];
    let mut best_b = [[0.0f32; GROUP]; GROUPS];
    for b in 0..blocks {
        let block = column_block(q, columns, m, b * COLUMN_BLOCK);
        let b = b as f32;
        for g in 0..GROUPS {
            for l in 0..GROUP {
                let closer = block[g][l] < best_d[g][l];
                best_d[g][l] = select_unpredictable(closer, block[g][l], best_d[g][l]);
                best_b[g][l] = select_unpredictable(closer, b, best_b[g][l]);
            }
        }
    }
    let mut best = (0usize, f32::INFINITY);
    let lanes = best_d.as_flattened().iter().zip(best_b.as_flattened());
    for (l, (&d, &b)) in lanes.enumerate() {
        let j = b as usize * COLUMN_BLOCK + l;
        // A lane whose minimum is still +∞ never took a point.
        if d < best.1 || (d == best.1 && d < f32::INFINITY && j < best.0) {
            best = (j, d);
        }
    }
    for j in blocks * COLUMN_BLOCK..m {
        let d = column_one(q, columns, m, j);
        if d < best.1 {
            best = (j, d);
        }
    }
    best
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::kernel_gemm::tests::{same, special};
    use proptest::prelude::*;

    /// The host has no AVX2: say so once, as the scan's and the GEMMs' proptests do.
    fn portable_host_reports_skip() -> bool {
        if Backend::detect() != Backend::Portable {
            return false;
        }
        static REPORT: std::sync::Once = std::sync::Once::new();
        REPORT.call_once(|| {
            eprintln!("SKIPPED column_kernels_match_their_portable_form_bit_for_bit: this host has no AVX2; the column kernels run their portable form")
        });
        true
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(512))]

        /// Both column kernels on this host's form against the portable form: the same
        /// bits (up to which NaN) and the same nearest point. `m` covers two 32-lane
        /// blocks and every remainder past them and `d` the 0-dim case; `q` starts one
        /// float into its allocation and the columns three past it; entries are seeded
        /// with NaN, ±∞ and ±0.0; and copies of one point are planted in different lanes
        /// and blocks (the rows are rounded to a coarse grid, and whole points are
        /// repeated), so the lowest-index rule decides ties across lanes and blocks.
        #[test]
        fn column_kernels_match_their_portable_form_bit_for_bit(
            d in 0usize..=12,
            m in 0usize..=100,
            seed in 0u64..1 << 40,
            specials in prop::collection::vec((0usize..1 << 20, 0u8..5), 0..6),
            copies in prop::collection::vec((0usize..1 << 20, 0usize..1 << 20), 0..8),
        ) {
            if portable_host_reports_skip() {
                return Ok(());
            }
            let mut values = crate::rng::normal_vector(&mut crate::rng::seeded(seed), 4 + d + d * m);
            if seed % 2 == 1 {
                values.iter_mut().for_each(|v| *v = v.round());
            }
            {
                let columns = &mut values[4 + d..];
                for &(from, to) in &copies {
                    if m > 0 {
                        let (from, to) = (from % m, to % m);
                        for t in 0..d {
                            columns[t * m + to] = columns[t * m + from];
                        }
                    }
                }
            }
            for &(at, class) in &specials {
                let at = at % values.len();
                values[at] = special(class);
            }
            let (q, columns) = (&values[1..1 + d], &values[4 + d..]);
            let (mut want, mut got) = (vec![f32::NAN; m], vec![f32::NAN; m]);
            squared_euclidean_to_columns_portable(q, columns, &mut want);
            squared_euclidean_to_columns(q, columns, &mut got);
            for (j, (&w, &g)) in want.iter().zip(&got).enumerate() {
                prop_assert!(
                    same(w, g),
                    "d={d} m={m} point {j}: portable {w:?} ({:#x}) vs {g:?} ({:#x})",
                    w.to_bits(), g.to_bits()
                );
            }
            let (want, got) = (nearest_column_portable(q, columns, m), nearest_column(q, columns, m));
            prop_assert!(want.0 == got.0 && same(want.1, got.1), "d={d} m={m}: {want:?} vs {got:?}");
        }
    }
}
