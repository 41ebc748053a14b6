//! The candidate stream of the online phase (Algorithm 2) and its two consumers.
//!
//! Algorithm 2 is one sentence — rank the bins, take the union of the `m′` most
//! probable bins' points, re-rank it — and this module is the one place that union is
//! walked. [`PartitionIndex::candidate_runs`] produces it as contiguous [`Run`]s in
//! stream order: per probed bin, the live CSR rows in bucket order, then the bin's
//! live membin rows in insertion order (DESIGN.md §2.4). A clean index is simply the
//! stream whose runs are whole bins and whose membin tails are empty, and compaction
//! ([`PartitionIndex::compacted`]) writes each bin's stream down as its new bin.
//!
//! A [`Consumer`] scores a query's whole stream in one [`Consumer::scan`], in one of
//! two ways, both through [`usp_linalg::kernel`] only:
//!
//! * **exact** — every row through the blocked distance kernels, keeping the top `k`
//!   under (distance, stream position);
//! * **two-phase** — runs that carry codes are ADC-scored into a shortlist, runs
//!   without codes (membin rows) are scored exactly; the shortlist is then re-ranked
//!   exactly from the runs' own rows and the codeless rows join after it.
//!
//! [`PartitionIndex::scan_bins`] and the serving engine both call it, so they agree bit
//! for bit: every score is the same kernel over the same rows, and every selection
//! breaks ties by stream position.

use std::borrow::Cow;

use usp_linalg::kernel::{self, AdcTable, SegmentedScan, TileKernel};
use usp_linalg::{topk, Distance};

use crate::mutation::MutationState;
use crate::partition_index::PartitionIndex;
use crate::partitioner::Partitioner;
use crate::searcher::SearchResult;

/// A contiguous piece of one query's candidate stream.
#[derive(Debug, Clone, Copy)]
pub struct Run<'a> {
    /// `ids.len()` rows, row-major.
    pub rows: &'a [f32],
    /// The rows' codes (stride = the quantizer's code length) on a compressed index;
    /// `None` on an exact index and for membin rows, which are never encoded.
    pub codes: Option<&'a [u8]>,
    /// Global id of each row.
    pub ids: &'a [u32],
}

impl Run<'_> {
    /// Number of candidates in the run.
    pub fn len(&self) -> usize {
        self.ids.len()
    }

    /// True for a run without candidates (the producer never yields one).
    pub fn is_empty(&self) -> bool {
        self.ids.is_empty()
    }
}

/// How one query scores its candidate stream (see the module docs). Built by
/// [`PartitionIndex::consumer`], which picks the mode from the index.
pub struct Consumer<'q> {
    distance: Distance,
    query: &'q [f32],
    dim: usize,
    k: usize,
    /// `Some` selects the two-phase mode.
    adc: Option<Adc<'q>>,
    cap: Option<usize>,
}

struct Adc<'q> {
    table: Cow<'q, AdcTable>,
    code_len: usize,
    shortlist: usize,
}

impl<P: Partitioner> PartitionIndex<P> {
    /// The candidate stream of the ranked `bins`, truncated to its first `cap`
    /// candidates when a cap is set. `delta` is the outstanding mutation state, or
    /// `None` on a clean index (so the clean path takes no lock); tombstoned rows
    /// never appear and a cap counts live candidates only.
    pub fn candidate_runs<'a>(
        &'a self,
        bins: &[usize],
        delta: Option<&'a MutationState>,
        cap: Option<usize>,
    ) -> Vec<Run<'a>> {
        let cap = cap.unwrap_or(usize::MAX);
        let dim = self.dims();
        let code_len = self.quantizer().map_or(0, |q| q.code_len());
        // Room for every run up front: a block with `t` tombstones is at most `t + 1`
        // runs. Nothing on this path grows push by push: it runs per query on every
        // pool thread, and each step of a `realloc` chain takes an allocator arena
        // lock — the arena of the chunk the chain started in, which may be another
        // thread's (DESIGN.md §2.4).
        let room = |b: usize| {
            delta.map_or(1, |d| {
                let mb = d.membin(b);
                2 + d.csr_dead_in_bin(b) + (mb.len() - mb.live())
            })
        };
        let mut runs = Vec::with_capacity(bins.iter().map(|&b| room(b)).sum());
        // Candidates produced so far, which the cap counts.
        let mut taken = 0usize;
        // Appends the live rows of one contiguous block. `mask` is the block's
        // tombstones, or `None` when it has none: an untouched block stays one run.
        let mut push =
            |mask: Option<&[bool]>, rows: &'a [f32], codes: Option<&'a [u8]>, ids: &'a [u32]| {
                let room = cap - taken;
                let mut run = |(off, len): (usize, usize)| {
                    if len == 0 {
                        return;
                    }
                    runs.push(Run {
                        rows: &rows[off * dim..(off + len) * dim],
                        codes: codes.map(|c| &c[off * code_len..(off + len) * code_len]),
                        ids: &ids[off..off + len],
                    });
                    taken += len;
                };
                match mask {
                    Some(m) => kernel::live_runs(m, room).for_each(run),
                    None => run((0, ids.len().min(room))),
                }
            };
        for &b in bins {
            let ids = self.bucket(b);
            let start = self.bin_offsets()[b];
            let mask = delta
                .filter(|d| d.csr_dead_in_bin(b) > 0)
                .map(|d| &d.csr_deleted()[start..start + ids.len()]);
            push(mask, self.bin_rows(b), self.bin_codes(b), ids);
            if let Some(mb) = delta.map(|d| d.membin(b)) {
                let mask = (mb.live() < mb.len()).then(|| mb.deleted());
                push(mask, mb.rows(), None, mb.ids());
            }
        }
        runs
    }

    /// The consumer for one query: exact on an exact index, two-phase on a compressed
    /// one (`table` must then come from this index's quantizer and `query`; `None`
    /// builds it here). `budget` caps the exact distance evaluations either way — as
    /// a stream cap in exact mode, as the shortlist size (default: the configured
    /// `rerank_budget`; floored at `k`) in two-phase mode.
    ///
    /// # Panics
    /// If `query` is not [`Self::dims`] long: the one check of a query's length, on
    /// behalf of every row it is then scored against.
    pub fn consumer<'q>(
        &self,
        query: &'q [f32],
        k: usize,
        budget: Option<usize>,
        table: Option<&'q AdcTable>,
    ) -> Consumer<'q> {
        assert_eq!(query.len(), self.dims(), "consumer: query dimension");
        let adc = self.quantizer().map(|q| Adc {
            table: table.map_or_else(
                || Cow::Owned(q.adc_table(self.distance(), query)),
                Cow::Borrowed,
            ),
            code_len: q.code_len(),
            shortlist: budget
                .or(self.compressed_rerank_budget())
                .expect("a compressed index has a default budget")
                .max(k),
        });
        Consumer {
            distance: self.distance(),
            query,
            dim: self.dims(),
            k,
            // The ADC pass sees the whole stream; only the exact scan truncates it.
            cap: budget.filter(|_| adc.is_none()),
            adc,
        }
    }
}

impl Consumer<'_> {
    /// The cap to produce this query's stream under.
    pub fn cap(&self) -> Option<usize> {
        self.cap
    }

    /// Scores the query's whole candidate stream — `runs` in stream order, as
    /// [`PartitionIndex::candidate_runs`] produced them under [`Self::cap`] — into its
    /// answer.
    pub fn scan(&self, runs: &[Run]) -> SearchResult {
        match &self.adc {
            None => self.exact_scan(runs),
            Some(adc) => self.two_phase_scan(adc, runs),
        }
    }

    /// Every row through the blocked distance kernels, keeping the top `k`.
    fn exact_scan(&self, runs: &[Run]) -> SearchResult {
        let mut scan = SegmentedScan::new(self.distance, self.query, self.dim, self.k);
        scan.reserve_segments(runs.len());
        for (ri, run) in runs.iter().enumerate() {
            scan.scan_segment(run.rows, run.len(), ri);
        }
        let scanned = scan.scanned();
        let winners = scan.into_winners().into_iter();
        let ids = winners.map(|(ri, off, _)| runs[ri].ids[off] as usize);
        SearchResult::new(ids.collect(), scanned)
    }

    /// Runs with codes through the ADC table into a shortlist, re-scored exactly;
    /// runs without codes scored exactly and ranked after it.
    fn two_phase_scan(&self, adc: &Adc<'_>, runs: &[Run]) -> SearchResult {
        // The shortlist holds no more than the codes streamed; sized by both, the
        // selector never outgrows its buffer.
        let coded = runs.iter().filter(|r| r.codes.is_some()).map(Run::len);
        let keep = adc.shortlist.min(coded.sum());
        let mut scan = SegmentedScan::adc(&adc.table, adc.code_len, keep);
        scan.reserve_segments(runs.len());
        for (ri, run) in runs.iter().enumerate() {
            if let Some(codes) = run.codes {
                scan.scan_segment(codes, run.len(), ri);
            }
        }
        let compressed = scan.scanned();
        // The shortlist in stream order, then the codeless rows in stream order: the
        // order the final selection breaks ties in. Sized once, like the runs
        // (`candidate_runs` says why).
        let kept = scan.into_kept();
        let codeless = runs.iter().filter(|r| r.codes.is_none());
        let n = kept.len() + codeless.clone().map(Run::len).sum::<usize>();
        let (mut scores, mut ids) = (Vec::with_capacity(n), Vec::with_capacity(n));
        let scorer = kernel::QueryScorer::new(self.distance, self.query);
        let dim = self.dim;
        let row = |&(ri, off, _): &(usize, usize, f32)| &runs[ri].rows[off * dim..(off + 1) * dim];
        // The survivors four at a time, each row gathered from its run …
        let mut fours = kept.chunks_exact(4);
        for four in fours.by_ref() {
            scores.extend(scorer.eval4(std::array::from_fn(|j| row(&four[j]))));
        }
        scores.extend(fours.remainder().iter().map(|s| scorer.eval(row(s))));
        ids.extend(kept.iter().map(|&(ri, off, _)| runs[ri].ids[off]));
        // … then each codeless run as one contiguous block of rows.
        for run in codeless {
            let start = scores.len();
            scores.resize(start + run.len(), 0.0);
            scorer.score_tile(run.rows, dim, &mut scores[start..]);
            ids.extend_from_slice(run.ids);
        }
        let top = topk::smallest_k_by(scores.len(), self.k, |i| scores[i]);
        let ids = top.into_iter().map(|i| ids[i] as usize).collect();
        SearchResult::new(ids, scores.len()).with_compressed_scanned(compressed)
    }
}

#[cfg(test)]
mod proptests {
    use super::*;
    use crate::partitioner::RoundRobinPartitioner;
    use crate::scoring::{CodeQuantizer, Scoring};
    use proptest::prelude::*;
    use std::sync::Arc;
    use usp_linalg::rng;

    /// Two bytes per point, a pure function of the row's first coordinate.
    struct FirstCoordBits {
        dim: usize,
    }

    impl CodeQuantizer for FirstCoordBits {
        fn dim(&self) -> usize {
            self.dim
        }
        fn code_len(&self) -> usize {
            2
        }
        fn encode_into(&self, point: &[f32], out: &mut [u8]) {
            out.copy_from_slice(&point[0].to_bits().to_le_bytes()[2..]);
        }
        fn adc_table(&self, _distance: Distance, _query: &[f32]) -> AdcTable {
            unreachable!("the producer scores nothing")
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(48))]
        /// The stream order is decided in `candidate_runs` and nowhere else, so it is
        /// pinned here against the naive definition: per probed bin, the live CSR ids
        /// in bucket order, then the live membin ids in insertion order, cut at the cap.
        #[test]
        fn runs_tile_the_naive_live_stream(
            assignments in prop::collection::vec(0usize..6, 1..60),
            ops in prop::collection::vec((0u8..3, 0u64..10_000), 0..24),
            dim in 1usize..4,
            probes in 1usize..7,
            cap_raw in 0usize..100,
            seed in 0u64..1000,
        ) {
            let (bins, n) = (6, assignments.len());
            let cap = (cap_raw < 80).then_some(cap_raw);
            let router = RoundRobinPartitioner::new(bins);
            let base = rng::normal_matrix(&mut rng::seeded(seed), n, dim, 1.0);
            let quantizer = Arc::new(FirstCoordBits { dim });
            let idx = PartitionIndex::from_assignments(
                router.clone(),
                &base,
                assignments,
                Distance::SquaredEuclidean,
            )
            .with_scoring(Scoring::compressed(quantizer.clone(), 8));
            let query = rng::normal_matrix(&mut rng::seeded(seed + 1), 1, dim, 1.0);
            let probed = router.rank_bins(query.row(0), probes);

            // Clean: one whole-bin run per non-empty probed bin, codes and all.
            let clean = idx.candidate_runs(&probed, None, None);
            let non_empty = probed.iter().filter(|&&b| !idx.bucket(b).is_empty());
            prop_assert_eq!(
                clean.iter().map(|r| r.ids).collect::<Vec<_>>(),
                non_empty.map(|&b| idx.bucket(b)).collect::<Vec<_>>()
            );

            // The model: every inserted point with its bin, and the set of dead ids.
            let mut inserted: Vec<(usize, Vec<f32>)> = Vec::new();
            let mut dead = std::collections::HashSet::new();
            for (step, &(kind, sel)) in ops.iter().enumerate() {
                if kind == 0 {
                    let id = sel as usize % (n + inserted.len());
                    prop_assert_eq!(idx.delete(id), dead.insert(id));
                } else {
                    let p = rng::normal_matrix(&mut rng::seeded(sel ^ (step as u64) << 20), 1, dim, 1.0);
                    prop_assert_eq!(idx.insert(p.row(0)), n + inserted.len());
                    inserted.push((router.assign(p.row(0)), p.row(0).to_vec()));
                }
            }
            let mut naive: Vec<u32> = Vec::new();
            for &b in &probed {
                naive.extend(idx.bucket(b).iter().filter(|&&id| !dead.contains(&(id as usize))));
                let mem = inserted.iter().enumerate().filter(|(_, (bin, _))| *bin == b);
                naive.extend(mem.map(|(j, _)| (n + j) as u32).filter(|&id| !dead.contains(&(id as usize))));
            }
            naive.truncate(cap.unwrap_or(usize::MAX));

            let delta = idx.delta();
            let runs = idx.candidate_runs(&probed, Some(&delta), cap);
            let ids: Vec<u32> = runs.iter().flat_map(|r| r.ids).copied().collect();
            prop_assert_eq!(ids, naive);
            for run in &runs {
                prop_assert!(!run.is_empty());
                prop_assert_eq!(run.rows.len(), run.len() * dim);
                for (j, &id) in run.ids.iter().enumerate() {
                    let row = &run.rows[j * dim..(j + 1) * dim];
                    // Base rows carry their codes; membin rows are never encoded.
                    let (expect, coded) = match (id as usize).checked_sub(n) {
                        None => (idx.point(id as usize), true),
                        Some(ins) => (&inserted[ins].1[..], false),
                    };
                    prop_assert_eq!(row, expect);
                    prop_assert_eq!(run.codes.is_some(), coded);
                    if let Some(codes) = run.codes {
                        prop_assert_eq!(codes.len(), run.len() * 2);
                        let mut code = [0u8; 2];
                        quantizer.encode_into(row, &mut code);
                        prop_assert_eq!(&codes[j * 2..j * 2 + 2], &code[..]);
                    }
                }
            }
        }
    }
}
