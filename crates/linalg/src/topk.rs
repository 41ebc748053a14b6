//! Top-k selection and ranking helpers.
//!
//! The online phase of every partitioning index ranks bins by probability and re-ranks
//! candidate points by distance; the offline phase selects exact nearest neighbours.
//! These helpers implement those selections with one bounded selector, [`TopK`], instead
//! of full sorts.
//!
//! # NaN and signed-zero semantics
//!
//! Distances and model scores can turn NaN (a NaN query coordinate poisons every
//! distance it touches), so the selection order here is total and pins NaN explicitly:
//! **NaN ranks strictly worst in both directions** — after every finite value and both
//! infinities, whether selecting smallest or largest — and ties (including `-0.0` vs
//! `0.0`, which compare equal) break by ascending index. [`argmax`] skips NaN
//! entirely and returns `None` when no comparable element exists. The property tests at
//! the bottom pin all of this against a full-sort oracle over inputs seeded with NaN,
//! ±∞ and ±0.0.

use std::cmp::Ordering;

/// The module's nan-class total order as a bare comparator: non-NaN values ascending
/// via `partial_cmp`, every NaN strictly after every comparable value, two NaNs equal.
///
/// This is [`TopK`]'s order on keys without the position tie-break, exported so ad-hoc
/// `sort_by`/`min_by` call sites (baseline hash margins, ground-truth oracles, sweep
/// curves) can share the convention instead of the panicking
/// `partial_cmp().unwrap()` idiom. Callers wanting deterministic ties should chain
/// their own index tie-break, exactly as a packed [`TopK`] candidate does.
#[inline]
pub fn nan_class_cmp(a: f32, b: f32) -> Ordering {
    match (a.is_nan(), b.is_nan()) {
        (true, true) => Ordering::Equal,
        (true, false) => Ordering::Greater,
        (false, true) => Ordering::Less,
        (false, false) => a.partial_cmp(&b).expect("non-NaN floats always compare"),
    }
}

/// [`nan_class_cmp`] for `f64` keys (sweep statistics are accumulated in `f64`).
#[inline]
pub fn nan_class_cmp_f64(a: f64, b: f64) -> Ordering {
    match (a.is_nan(), b.is_nan()) {
        (true, true) => Ordering::Equal,
        (true, false) => Ordering::Greater,
        (false, true) => Ordering::Less,
        (false, false) => a.partial_cmp(&b).expect("non-NaN floats always compare"),
    }
}

/// Index of the maximum element (first one on ties), skipping NaN entries.
///
/// Returns `None` for an empty or all-NaN slice — the pre-hardening version silently
/// answered `0` in both cases, which let a NaN-poisoned score vector masquerade as a
/// confident vote for bin 0.
///
/// Two branch-free passes: `f32::max` ignores NaN, so the fold is the largest non-NaN
/// value (`-∞` when there is none, which no NaN equals), and the first element equal to
/// it is the answer (`-0.0 == 0.0`, so either signed zero ties with the other).
#[inline]
pub fn argmax(values: &[f32]) -> Option<usize> {
    let max = values.iter().fold(f32::NEG_INFINITY, |m, &v| m.max(v));
    values.iter().position(|&v| v == max)
}

/// Indices of the `k` smallest values, ordered ascending by value (NaN last, ties by
/// index).
pub fn smallest_k(values: &[f32], k: usize) -> Vec<usize> {
    smallest_k_by(values.len(), k, |i| values[i])
}

/// Indices of the `k` largest values, ordered descending by value (NaN last, ties by
/// index).
pub fn largest_k(values: &[f32], k: usize) -> Vec<usize> {
    largest_k_by(values.len(), k, |i| values[i])
}

/// Indices `0..n` with the `k` smallest keys (ascending by key, NaN last).
///
/// The key function is called once per index; a [`TopK`] keeps memory at `O(k)`.
///
/// # Panics
/// If `n` does not fit the selector's `u32` positions (checked once, not per index).
pub fn smallest_k_by(n: usize, k: usize, key: impl Fn(usize) -> f32) -> Vec<usize> {
    let n = u32::try_from(n).expect("smallest_k_by: more than u32::MAX indices");
    let mut top = TopK::new(k);
    for i in 0..n {
        top.push(i, key(i as usize));
    }
    top.into_sorted_indices()
}

/// Indices `0..n` with the `k` largest keys (descending by key, NaN last).
///
/// Not implemented as `smallest_k_by(-key)` over a plain float comparator: negation
/// maps `-∞` onto `+∞` — the very sentinel a NaN key would need — so a NaN at a lower
/// index could outrank a genuine `-∞` (and vice versa). Here the negated key goes
/// through [`TopK`]'s NaN-aware order, which still sees NaN (negating NaN yields NaN)
/// and keeps it strictly after every comparable key, while `-∞` negates to the
/// ordinary comparable `+∞`. The proptests below pin the equivalence with a descending
/// full sort.
pub fn largest_k_by(n: usize, k: usize, key: impl Fn(usize) -> f32) -> Vec<usize> {
    smallest_k_by(n, k, |i| -key(i))
}

/// The order-preserving 32-bit image of a selection key, and the **definition** of the
/// module's total order: `a` ranks before `b` exactly when `rank_bits(a) <
/// rank_bits(b)`, and they tie exactly when the images are equal (so `-0.0` and `0.0`
/// share one, and every NaN maps to the single largest).
#[inline]
fn rank_bits(key: f32) -> u32 {
    if key.is_nan() {
        return u32::MAX;
    }
    // `-0.0 + 0.0` is `+0.0`; every other value is unchanged.
    let bits = (key + 0.0).to_bits();
    // Non-negative floats already order like their bits; negative ones in reverse.
    if bits >> 31 == 0 {
        bits | 1 << 31
    } else {
        !bits
    }
}

/// The key of an image: the pushed key itself up to [`rank_bits`]' ties (`f32::NAN` for
/// any NaN and `+0.0` for either zero).
#[inline]
fn key_of_rank_bits(image: u32) -> f32 {
    if image == u32::MAX {
        f32::NAN
    } else if image >> 31 == 1 {
        f32::from_bits(image & !(1 << 31))
    } else {
        f32::from_bits(!image)
    }
}

/// The one bounded selector: push `(position, key)` pairs in any order, read the `k`
/// best back — ranked ([`TopK::into_sorted`]) or as a set ([`TopK::into_kept`]).
///
/// A candidate is one `u64`: the `rank_bits` image of its key above its `u32` position, so
/// integer order on candidates **is** the module's total order (ascending key, NaN
/// strictly last, `-0.0 ≡ 0.0`, ties by ascending position) and a comparison is one
/// instruction. Candidates accumulate in a flat buffer; whenever it reaches `2k` it is
/// cut back to the `k` smallest by `select_nth_unstable`, and the largest survivor's
/// key becomes the bound above which [`TopK::push`] drops a later key in a single
/// comparison (a tie with the bound is buffered and left to the next prune). Amortised
/// `O(1)` per push for any `k`, so a selection is exactly [`smallest_k_by`] over the
/// same pushes without materialising the key vector.
///
/// This is the consumer side of the stream scan ([`crate::kernel::SegmentedScan`]):
/// distances go straight from a tile into the buffer and come back with the winners,
/// so callers never re-derive one. Keys come back canonical: any NaN as `f32::NAN`,
/// either zero as `+0.0`, everything else the bits that were pushed.
///
/// Positions identify candidates and must not repeat. They are `u32` so a candidate
/// packs into a word; a producer checks its range once (per segment, per
/// `smallest_k_by` call), never per push.
#[derive(Debug, Clone)]
pub struct TopK {
    k: usize,
    /// Prune trigger: `2k`, so each `O(len)` prune amortizes over `k` appends.
    cap: usize,
    buf: Vec<u64>,
    /// See [`TopK::bound`].
    bound: f32,
}

impl TopK {
    /// A selector keeping the `k` smallest pushed keys.
    pub fn new(k: usize) -> Self {
        let cap = k.saturating_mul(2);
        Self {
            k,
            cap,
            // Capacity is only a hint: an oversized "rank everything" k must not
            // pre-allocate k slots (it would abort on huge k).
            buf: Vec::with_capacity(cap.min(4096)),
            bound: f32::NAN,
        }
    }

    /// Offers one candidate; dropped here if its key is above [`TopK::bound`].
    #[inline]
    pub fn push(&mut self, position: u32, key: f32) {
        if key > self.bound || self.k == 0 {
            return;
        }
        self.buf
            .push(u64::from(rank_bits(key)) << 32 | u64::from(position));
        if self.buf.len() >= self.cap {
            self.prune();
        }
    }

    /// Shrinks the buffer back to the `k` best and refreshes the rejection bound.
    fn prune(&mut self) {
        if self.buf.len() > self.k {
            self.buf.select_nth_unstable(self.k - 1);
            self.buf.truncate(self.k);
            self.bound = key_of_rank_bits((self.buf[self.k - 1] >> 32) as u32);
        }
    }

    /// A key strictly above this cannot be kept, whatever its position: `k` candidates
    /// already seen beat it. The bound is **valid, not tight** — it is the `k`-th best
    /// key as of the last prune, so the true `k`-th best may already be lower — and NaN,
    /// which no key compares above, until the first prune or while that candidate's key
    /// is itself NaN. A pass that can skip work for a whole block of candidates (a
    /// probed bin whose lower bound exceeds it) reads it here.
    #[inline]
    pub fn bound(&self) -> f32 {
        self.bound
    }

    /// Number of candidates currently kept (≤ `k`).
    pub fn len(&self) -> usize {
        self.buf.len().min(self.k)
    }

    /// True when nothing has been kept.
    pub fn is_empty(&self) -> bool {
        self.buf.is_empty()
    }

    /// The `k` best as `(position, key)`, best first.
    pub fn into_sorted(self) -> Vec<(u32, f32)> {
        unpack(self.sorted())
    }

    /// The positions of the `k` best, best first.
    pub fn into_sorted_indices(self) -> Vec<usize> {
        let sorted = self.sorted().into_iter();
        sorted.map(|c| c as u32 as usize).collect()
    }

    /// The `k` best as a set: `(position, key)` in ascending position, for a pass whose
    /// caller makes the order itself.
    pub fn into_kept(mut self) -> Vec<(u32, f32)> {
        self.prune();
        self.buf.sort_unstable_by_key(|&c| c as u32);
        unpack(self.buf)
    }

    /// The `k` best candidates, packed, in the total order.
    fn sorted(mut self) -> Vec<u64> {
        self.prune();
        self.buf.sort_unstable();
        self.buf
    }
}

/// Packed candidates as `(position, key)`.
fn unpack(candidates: Vec<u64>) -> Vec<(u32, f32)> {
    let unpack = |c: u64| (c as u32, key_of_rank_bits((c >> 32) as u32));
    candidates.into_iter().map(unpack).collect()
}

/// Selects, for each column of a row-major `rows x cols` buffer, the `k` largest entries,
/// and returns their flat positions (`row * cols + col`).
///
/// This is the "window" selection used by the computational-cost term of the paper's loss
/// (Eq. 12): the top `n/m` probabilities of every bin column.
pub fn top_k_per_column(data: &[f32], rows: usize, cols: usize, k: usize) -> Vec<usize> {
    assert_eq!(data.len(), rows * cols, "top_k_per_column: shape mismatch");
    let k = k.min(rows);
    let mut out = Vec::with_capacity(cols * k);
    for c in 0..cols {
        let col_top = largest_k_by(rows, k, |r| data[r * cols + c]);
        out.extend(col_top.into_iter().map(|r| r * cols + c));
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The `k` best of `pushed` by a full sort — NaN explicitly last, ties by position,
    /// written out independently of the packed keys under test.
    pub(super) fn full_sort_oracle(pushed: &[(u32, f32)], k: usize) -> Vec<(u32, f32)> {
        let mut all = pushed.to_vec();
        all.sort_by(|a, b| match (a.1.is_nan(), b.1.is_nan()) {
            (true, true) => a.0.cmp(&b.0),
            (true, false) => Ordering::Greater,
            (false, true) => Ordering::Less,
            (false, false) => a.1.partial_cmp(&b.1).unwrap().then(a.0.cmp(&b.0)),
        });
        all.truncate(k);
        all
    }

    /// `top`, fed `pushed`, against the oracle: the ranked read, the set read (the
    /// ranked one re-sorted by position), canonical keys, and a bound no kept key is
    /// above.
    pub(super) fn assert_matches_oracle(
        top: &TopK,
        pushed: &[(u32, f32)],
        k: usize,
    ) -> Result<(), String> {
        let want = full_sort_oracle(pushed, k);
        let sorted = top.clone().into_sorted();
        if sorted.len() != want.len() || top.len() != want.len() {
            return Err(format!(
                "kept {} (len {}), oracle {}",
                sorted.len(),
                top.len(),
                want.len()
            ));
        }
        for (w, g) in want.iter().zip(&sorted) {
            // The key that was pushed: NaN as NaN, either zero as +0.0.
            let canonical = if w.1.is_nan() {
                g.1.is_nan()
            } else {
                (w.1 + 0.0).to_bits() == g.1.to_bits()
            };
            if w.0 != g.0 || !canonical {
                return Err(format!("sorted {g:?}, oracle {w:?}"));
            }
            if w.1 > top.bound() {
                return Err(format!("bound {} rejects the oracle's {w:?}", top.bound()));
            }
        }
        let mut by_position = sorted;
        by_position.sort_unstable_by_key(|&(position, _)| position);
        let kept = top.clone().into_kept();
        let same = |a: &(u32, f32), b: &(u32, f32)| a.0 == b.0 && a.1.to_bits() == b.1.to_bits();
        if kept.len() != by_position.len()
            || !kept.iter().zip(&by_position).all(|(a, b)| same(a, b))
        {
            return Err(format!(
                "into_kept {kept:?} is not into_sorted by position {by_position:?}"
            ));
        }
        Ok(())
    }

    #[test]
    fn argmax_argmin_basic() {
        let v = [1.0, 5.0, 3.0, 5.0];
        assert_eq!(argmax(&v), Some(1));
    }

    #[test]
    fn argmax_argmin_empty_and_all_nan_return_none() {
        assert_eq!(argmax(&[]), None);
        assert_eq!(argmax(&[f32::NAN, f32::NAN]), None);
    }

    #[test]
    fn argmax_argmin_skip_nan_entries() {
        let v = [f32::NAN, 2.0, f32::NAN, 7.0, -1.0];
        assert_eq!(argmax(&v), Some(3));
        // A NaN in front must not shadow a real extremum behind it.
        assert_eq!(argmax(&[f32::NAN, -5.0]), Some(1));
    }

    #[test]
    fn argmax_argmin_handle_infinities() {
        assert_eq!(argmax(&[f32::NEG_INFINITY, f32::NEG_INFINITY]), Some(0));
        assert_eq!(argmax(&[1.0, f32::INFINITY]), Some(1));
    }

    #[test]
    fn smallest_k_returns_sorted_indices() {
        let v = [5.0, 1.0, 4.0, 2.0, 3.0];
        assert_eq!(smallest_k(&v, 3), vec![1, 3, 4]);
        assert_eq!(smallest_k(&v, 0), Vec::<usize>::new());
        assert_eq!(smallest_k(&v, 10), vec![1, 3, 4, 2, 0]);
    }

    #[test]
    fn largest_k_returns_descending() {
        let v = [5.0, 1.0, 4.0, 2.0, 3.0];
        assert_eq!(largest_k(&v, 2), vec![0, 2]);
    }

    #[test]
    fn signed_zeros_tie_by_index_in_both_directions() {
        let v = [0.0f32, -0.0, 0.0, -0.0];
        assert_eq!(smallest_k(&v, 4), vec![0, 1, 2, 3]);
        assert_eq!(largest_k(&v, 4), vec![0, 1, 2, 3]);
        assert_eq!(argmax(&v), Some(0));
    }

    #[test]
    fn nan_ranks_after_negative_infinity_in_largest_k() {
        // The old `-values[i]` negation trick mapped -inf onto the same +inf sentinel
        // as NaN, letting an earlier NaN outrank a genuine -inf.
        let v = [f32::NAN, f32::NEG_INFINITY];
        assert_eq!(largest_k(&v, 1), vec![1]);
        assert_eq!(largest_k(&v, 2), vec![1, 0]);
        // Symmetric case for smallest_k: NaN must rank after +inf.
        let w = [f32::NAN, f32::INFINITY];
        assert_eq!(smallest_k(&w, 1), vec![1]);
        assert_eq!(smallest_k(&w, 2), vec![1, 0]);
    }

    #[test]
    fn streaming_topk_matches_smallest_k() {
        let v = [5.0, 1.0, f32::NAN, 2.0, 1.0, -3.5];
        let mut top = TopK::new(3);
        for (i, &x) in v.iter().enumerate() {
            top.push(i as u32, x);
        }
        assert_eq!(top.len(), 3);
        assert_eq!(top.clone().into_sorted_indices(), smallest_k(&v, 3));
        let entries = top.into_sorted();
        assert_eq!(entries[0], (5, -3.5));
        assert_eq!(entries[1], (1, 1.0));
        assert_eq!(entries[2], (4, 1.0));
    }

    #[test]
    fn streaming_topk_hands_nan_keys_back_as_nan() {
        let mut top = TopK::new(2);
        top.push(0, f32::NAN);
        top.push(1, f32::NAN);
        let entries = top.into_sorted();
        assert_eq!(entries.len(), 2);
        assert_eq!((entries[0].0, entries[1].0), (0, 1));
        assert!(entries[0].1.is_nan() && entries[1].1.is_nan());
    }

    #[test]
    fn oversized_k_returns_everything_without_allocating_k_slots() {
        // The selector must treat k as a limit, not an allocation size: asking to
        // "rank everything" with a huge k is valid and returns all elements sorted.
        let v = [3.0f32, 1.0, 2.0];
        assert_eq!(smallest_k(&v, usize::MAX), vec![1, 2, 0]);
        assert_eq!(largest_k(&v, usize::MAX), vec![0, 2, 1]);
        let mut top = TopK::new(usize::MAX);
        for (i, &x) in v.iter().enumerate() {
            top.push(i as u32, x);
        }
        assert_eq!(top.into_sorted_indices(), vec![1, 2, 0]);
    }

    #[test]
    fn streaming_topk_with_k_zero_keeps_nothing() {
        let mut top = TopK::new(0);
        top.push(0, 1.0);
        assert!(top.is_empty());
        assert!(top.clone().into_sorted().is_empty());
        assert!(top.into_kept().is_empty());
    }

    #[test]
    fn shortlist_keeps_the_heap_topk_set_across_prunes() {
        // 10k ascending-then-descending keys force many prune cycles at k=100; the
        // kept set is checked against the full-sort oracle after every push.
        let keys: Vec<f32> = (0..10_000)
            .map(|i| {
                if i % 2 == 0 {
                    i as f32
                } else {
                    (10_000 - i) as f32
                }
            })
            .collect();
        let mut top = TopK::new(100);
        let mut pushed = Vec::new();
        for (i, &x) in keys.iter().enumerate() {
            top.push(i as u32, x);
            pushed.push((i as u32, x));
            if i % 97 == 0 || i + 1 == keys.len() {
                assert_matches_oracle(&top, &pushed, 100).unwrap();
            }
        }
    }

    #[test]
    fn shortlist_with_oversized_k_returns_everything_in_position_order() {
        let v = [3.0f32, 1.0, 2.0];
        let mut top = TopK::new(usize::MAX);
        for (i, &x) in v.iter().enumerate() {
            top.push(i as u32, x);
        }
        assert_eq!(top.into_kept(), vec![(0, 3.0), (1, 1.0), (2, 2.0)]);
    }

    #[test]
    fn rank_bits_order_is_the_scored_order() {
        let ladder = [
            f32::NEG_INFINITY,
            f32::MIN,
            -1.0,
            -f32::MIN_POSITIVE,
            -1e-45, // the negative subnormal nearest zero
            0.0,
            1e-45,
            f32::MIN_POSITIVE,
            1.0,
            f32::MAX,
            f32::INFINITY,
            f32::NAN,
        ];
        // The images order the ladder, and agree with the exported comparator on
        // every pair: the packed order is the module's order by definition.
        for pair in ladder.windows(2) {
            assert!(rank_bits(pair[0]) < rank_bits(pair[1]), "{pair:?}");
        }
        for &a in &ladder {
            for &b in &ladder {
                let by_image = rank_bits(a).cmp(&rank_bits(b));
                assert_eq!(by_image, nan_class_cmp(a, b), "{a} vs {b}");
            }
        }
        assert_eq!(rank_bits(-0.0), rank_bits(0.0));
        assert_eq!(rank_bits(-f32::NAN), rank_bits(f32::NAN));
        for &x in &ladder[..ladder.len() - 1] {
            assert_eq!(key_of_rank_bits(rank_bits(x)).to_bits(), x.to_bits());
        }
        assert_eq!(
            key_of_rank_bits(rank_bits(-0.0)).to_bits(),
            0.0f32.to_bits()
        );
        assert!(key_of_rank_bits(rank_bits(-f32::NAN)).is_nan());
    }

    #[test]
    fn bound_rejects_only_what_push_would_drop() {
        let mut top = TopK::new(2);
        assert!(top.bound().is_nan(), "no bound before k entries are kept");
        top.push(0, 5.0);
        top.push(1, f32::NAN);
        top.push(2, 7.0);
        // Valid, not tight: 7.0 is already the 2nd best, but the bound is the k-th
        // best as of the last prune, and it never sits below a key the oracle keeps.
        let bound = top.bound();
        assert!(bound.is_nan() || bound >= 7.0, "{bound}");
        top.push(3, 9.0);
        assert_eq!(top.bound(), 7.0, "the prune at 2k set it");
        // A tie with the bound is not above it: the position decides it.
        top.push(1, 7.0);
        top.push(4, 8.0);
        assert_eq!(top.into_sorted(), vec![(0, 5.0), (1, 7.0)]);
        assert!(TopK::new(0).bound().is_nan());
        // A NaN k-th best rejects nothing.
        let mut nans = TopK::new(1);
        nans.push(0, f32::NAN);
        nans.push(1, f32::NAN);
        assert!(nans.bound().is_nan());
        nans.push(2, 3.0);
        assert_eq!(nans.into_sorted(), vec![(2, 3.0)]);
    }

    #[test]
    fn top_k_per_column_selects_column_maxima() {
        // 3x2 matrix:
        // 0.1 0.9
        // 0.8 0.2
        // 0.3 0.7
        let data = vec![0.1, 0.9, 0.8, 0.2, 0.3, 0.7];
        let idx = top_k_per_column(&data, 3, 2, 1);
        // Column 0 max is row 1 (flat 2), column 1 max is row 0 (flat 1).
        assert_eq!(idx, vec![2, 1]);
    }

    #[test]
    fn top_k_per_column_k_larger_than_rows() {
        let data = vec![1.0, 2.0];
        let idx = top_k_per_column(&data, 1, 2, 5);
        assert_eq!(idx.len(), 2);
    }

    #[test]
    fn nan_class_cmp_is_total_with_nan_strictly_last() {
        use Ordering::*;
        assert_eq!(nan_class_cmp(1.0, 2.0), Less);
        assert_eq!(nan_class_cmp(2.0, 1.0), Greater);
        assert_eq!(nan_class_cmp(1.0, 1.0), Equal);
        assert_eq!(nan_class_cmp(-0.0, 0.0), Equal);
        assert_eq!(nan_class_cmp(f32::NAN, f32::NAN), Equal);
        assert_eq!(nan_class_cmp(f32::NAN, f32::INFINITY), Greater);
        assert_eq!(nan_class_cmp(f32::NEG_INFINITY, f32::NAN), Less);
        assert_eq!(nan_class_cmp_f64(f64::NAN, f64::INFINITY), Greater);
        assert_eq!(nan_class_cmp_f64(f64::NEG_INFINITY, 3.0), Less);
        assert_eq!(nan_class_cmp_f64(f64::NAN, f64::NAN), Equal);
        assert_eq!(nan_class_cmp_f64(-0.0, 0.0), Equal);
    }

    #[test]
    fn nan_class_cmp_with_index_tiebreak_matches_module_selection_order() {
        // Sorting by (nan_class_cmp, index) must reproduce a full selection exactly —
        // the exported comparator is the same total order the packed keys implement.
        let v = [2.0f32, f32::NAN, -1.0, f32::NAN, 2.0, f32::INFINITY];
        let mut idx: Vec<usize> = (0..v.len()).collect();
        idx.sort_by(|&a, &b| nan_class_cmp(v[a], v[b]).then_with(|| a.cmp(&b)));
        assert_eq!(idx, smallest_k(&v, v.len()));
    }

    #[test]
    fn nan_scores_do_not_poison_selection() {
        let v = [f32::NAN, 1.0, 0.5];
        assert_eq!(smallest_k(&v, 2), vec![2, 1]);
        assert_eq!(largest_k(&v, 2), vec![1, 2]);
        // All-NaN input still returns a deterministic index order.
        let all_nan = [f32::NAN; 4];
        assert_eq!(smallest_k(&all_nan, 2), vec![0, 1]);
        assert_eq!(largest_k(&all_nan, 2), vec![0, 1]);
    }
}

#[cfg(test)]
mod proptests {
    use super::*;
    use proptest::prelude::*;

    /// Builds a float vector mixing finite samples with the special values the shrink
    /// classes select: NaN, ±∞, ±0.0. `classes` and `finites` are sampled independently;
    /// the shorter drives the length.
    fn build_special(finites: &[f32], classes: &[u8]) -> Vec<f32> {
        finites
            .iter()
            .zip(classes)
            .map(|(&f, &c)| match c {
                0 => f32::NAN,
                1 => f32::INFINITY,
                2 => f32::NEG_INFINITY,
                3 => 0.0,
                4 => -0.0,
                _ => f,
            })
            .collect()
    }

    proptest! {
        #[test]
        fn smallest_k_matches_full_sort(values in prop::collection::vec(-1e4f32..1e4, 0..200), k in 0usize..50) {
            let selected = smallest_k(&values, k);
            let mut by_sort: Vec<usize> = (0..values.len()).collect();
            by_sort.sort_by(|&a, &b| nan_class_cmp(values[a], values[b]).then(a.cmp(&b)));
            by_sort.truncate(k);
            prop_assert_eq!(selected, by_sort);
        }

        #[test]
        fn largest_k_is_reverse_of_smallest_of_negated(values in prop::collection::vec(-1e4f32..1e4, 1..100), k in 1usize..20) {
            let largest = largest_k(&values, k);
            let negated: Vec<f32> = values.iter().map(|x| -x).collect();
            let smallest_neg = smallest_k(&negated, k);
            prop_assert_eq!(largest, smallest_neg);
        }

        #[test]
        fn argmax_is_actually_max(values in prop::collection::vec(-1e4f32..1e4, 1..100)) {
            let i = argmax(&values).expect("finite input has a maximum");
            for &v in &values {
                prop_assert!(values[i] >= v);
            }
        }

        /// After every push the selector holds exactly the full-sort oracle's `k` best
        /// of the pushed prefix — ranked and as a set — with no kept key above its bound,
        /// over streams seeded with NaN, ±∞, ±0.0 and repeated finite keys, in either
        /// push order, for `k = 0` and for `k` past the stream's end.
        #[test]
        fn shortlist_is_push_for_push_the_heap_topk_set(
            finites in prop::collection::vec(-1e3f32..1e3, 1..300),
            classes in prop::collection::vec(0u8..12, 1..300),
            k in 0usize..40,
            descending in 0u8..2,
        ) {
            // Whole-number keys: a few hundred draws from ±10 repeat most of them.
            let coarse: Vec<f32> = finites.iter().map(|f| (f / 100.0).round()).collect();
            let values = build_special(&coarse, &classes);
            let n = values.len();
            let mut top = TopK::new(k);
            let mut pushed = Vec::with_capacity(n);
            for step in 0..n {
                // Either push order: the packed bound does not need ascending positions.
                let i = if descending == 1 { n - 1 - step } else { step };
                top.push(i as u32, values[i]);
                pushed.push((i as u32, values[i]));
                let checked = super::tests::assert_matches_oracle(&top, &pushed, k);
                prop_assert!(checked.is_ok(), "after {} pushes: {:?}", step + 1, checked);
            }
        }

        #[test]
        fn selection_matches_full_sort_oracle_with_special_values(
            finites in prop::collection::vec(-1e3f32..1e3, 1..64),
            classes in prop::collection::vec(0u8..12, 1..64),
            k in 1usize..24,
        ) {
            let values = build_special(&finites, &classes);
            let n = values.len();
            let k = k.min(n);

            // Oracle: full sort with NaN explicitly last and ties broken by index —
            // written out independently of the packed keys under test.
            let mut asc: Vec<usize> = (0..n).collect();
            asc.sort_by(|&a, &b| {
                match (values[a].is_nan(), values[b].is_nan()) {
                    (true, true) => a.cmp(&b),
                    (true, false) => std::cmp::Ordering::Greater,
                    (false, true) => std::cmp::Ordering::Less,
                    (false, false) => values[a]
                        .partial_cmp(&values[b])
                        .unwrap()
                        .then_with(|| a.cmp(&b)),
                }
            });
            let mut desc: Vec<usize> = (0..n).collect();
            desc.sort_by(|&a, &b| {
                match (values[a].is_nan(), values[b].is_nan()) {
                    (true, true) => a.cmp(&b),
                    (true, false) => std::cmp::Ordering::Greater,
                    (false, true) => std::cmp::Ordering::Less,
                    (false, false) => values[b]
                        .partial_cmp(&values[a])
                        .unwrap()
                        .then_with(|| a.cmp(&b)),
                }
            });

            prop_assert_eq!(smallest_k(&values, k), asc[..k].to_vec());
            prop_assert_eq!(largest_k(&values, k), desc[..k].to_vec());

            // argmax agrees with the oracle's first non-NaN endpoint.
            let first_non_nan_desc = desc.iter().copied().find(|&i| !values[i].is_nan());
            let expected_max = first_non_nan_desc.map(|top| {
                // first index holding a value equal to the max (argmax is first-on-ties)
                (0..n)
                    .find(|&i| values[i] == values[top])
                    .unwrap()
            });
            prop_assert_eq!(argmax(&values), expected_max);
        }
    }
}
