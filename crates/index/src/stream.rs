//! The candidate stream of the online phase (Algorithm 2) and its two consumers.
//!
//! Algorithm 2 is one sentence — rank the bins, take the union of the `m′` most
//! probable bins' points, re-rank it — and this module is the one place that union is
//! walked. [`PartitionIndex::candidate_runs`] produces it as contiguous [`Run`]s in
//! stream order: per probed bin, the live CSR rows in bucket order, then the bin's
//! live membin rows in insertion order (DESIGN.md §2.4). A clean index is simply the
//! stream whose runs are whole bins and whose membin tails are empty.
//!
//! A [`Consumer`] scores runs in one of two ways, both through [`usp_linalg::kernel`]
//! only:
//!
//! * **exact** — every row through the blocked distance kernels, keeping the top `k`
//!   under (distance, stream position);
//! * **two-phase** — runs that carry codes are ADC-scored into a shortlist, runs
//!   without codes (membin rows) are scored exactly; the shortlist is then re-ranked
//!   exactly from the runs' own rows and the codeless rows join after it.
//!
//! Scoring is split into [`Consumer::pass`] over any subset of a query's runs and
//! [`Consumer::finish`] over the passes' [`Partial`]s. The monolithic scan is one pass
//! over the whole stream; a sharded scan is one pass per shard over that shard's runs.
//! Both finish the same way, so they agree bit for bit: every score is the same kernel
//! over the same rows, and every selection breaks ties by [`Run::pos`].

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
    /// The probed bin the rows belong to (what a shard map places).
    pub bin: usize,
    /// Stream position of the run's first row; runs tile the stream densely.
    pub pos: usize,
    /// `ids.len()` rows, row-major.
    pub rows: &'a [f32],
    /// The rows' codes (stride = the quantizer's code length) on a compressed index;
    /// `None` on an exact index and for membin rows, which are never encoded.
    pub codes: Option<&'a [u8]>,
    /// Global id of each row.
    pub ids: &'a [u32],
}

impl<'a> Run<'a> {
    /// Number of candidates in the run.
    pub fn len(&self) -> usize {
        self.ids.len()
    }

    /// True for a run without candidates (the producer never yields one).
    pub fn is_empty(&self) -> bool {
        self.ids.is_empty()
    }

    fn hit(&self, off: usize, score: f32) -> Hit<'a> {
        let dim = self.rows.len() / self.len();
        Hit {
            pos: self.pos + off,
            score,
            id: self.ids[off],
            row: &self.rows[off * dim..(off + 1) * dim],
        }
    }
}

/// One scored candidate kept by a pass.
#[derive(Debug, Clone, Copy)]
struct Hit<'a> {
    pos: usize,
    score: f32,
    id: u32,
    row: &'a [f32],
}

/// What one [`Consumer::pass`] kept of the runs it scored.
#[derive(Debug)]
pub struct Partial<'a> {
    /// Exact mode: the pass's top `k`. Two-phase: its ADC shortlist.
    hits: Vec<Hit<'a>>,
    /// Two-phase only: every codeless row, exactly scored (none may be dropped
    /// per pass — all of them reach the final selection).
    tail: Vec<Hit<'a>>,
    /// Rows streamed through the pass's blocked scan (exact rows, or codes).
    streamed: usize,
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
        let mut pos = 0usize;
        // Appends the live rows of one contiguous block. `mask` is the block's
        // tombstones, or `None` when it has none: an untouched block stays one run.
        let mut push = |bin,
                        mask: Option<&[bool]>,
                        rows: &'a [f32],
                        codes: Option<&'a [u8]>,
                        ids: &'a [u32]| {
            let room = cap - pos;
            let mut run = |(off, len): (usize, usize)| {
                if len == 0 {
                    return;
                }
                runs.push(Run {
                    bin,
                    pos,
                    rows: &rows[off * dim..(off + len) * dim],
                    codes: codes.map(|c| &c[off * code_len..(off + len) * code_len]),
                    ids: &ids[off..off + len],
                });
                pos += len;
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
            push(b, mask, self.bin_rows(b), self.bin_codes(b), ids);
            if let Some(mb) = delta.map(|d| d.membin(b)) {
                let mask = (mb.live() < mb.len()).then(|| mb.deleted());
                push(b, mask, mb.rows(), None, mb.ids());
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

/// What a pass's scan kept, as a set in stream order ([`Consumer::finish`] owns the
/// order); segments were tagged with their run's index in `runs`.
fn kept_hits<'a, K: TileKernel>(scan: SegmentedScan<K>, runs: &[Run<'a>]) -> Vec<Hit<'a>> {
    let kept = scan.into_kept().into_iter();
    kept.map(|(ri, off, score)| runs[ri].hit(off, score))
        .collect()
}

impl Consumer<'_> {
    /// The cap to produce this query's stream under.
    pub fn cap(&self) -> Option<usize> {
        self.cap
    }

    /// Scores `runs` — the whole stream or one shard's share of it, in stream order.
    pub fn pass<'a>(&self, runs: &[Run<'a>]) -> Partial<'a> {
        match &self.adc {
            None => self.exact_pass(runs),
            Some(adc) => self.two_phase_pass(adc, runs),
        }
    }

    /// Every row through the blocked distance kernels, keeping the top `k`.
    fn exact_pass<'a>(&self, runs: &[Run<'a>]) -> Partial<'a> {
        let mut scan = SegmentedScan::new(self.distance, self.query, self.dim, self.k);
        scan.reserve_segments(runs.len());
        for (ri, run) in runs.iter().enumerate() {
            scan.scan_segment(run.rows, run.len(), ri);
        }
        Partial {
            streamed: scan.scanned(),
            hits: kept_hits(scan, runs),
            tail: Vec::new(),
        }
    }

    /// Runs with codes through the ADC table into a shortlist; runs without, exactly.
    fn two_phase_pass<'a>(&self, adc: &Adc<'_>, runs: &[Run<'a>]) -> Partial<'a> {
        // A pass's share of the global shortlist can exceed neither the shortlist nor
        // the codes it streams.
        let coded = runs.iter().filter(|r| r.codes.is_some()).map(Run::len);
        let keep = adc.shortlist.min(coded.sum());
        let mut scan = SegmentedScan::adc(&adc.table, adc.code_len, keep);
        scan.reserve_segments(runs.len());
        let scorer = kernel::QueryScorer::new(self.distance, self.query);
        let codeless = runs.iter().filter(|r| r.codes.is_none()).map(Run::len);
        let mut tail = Vec::with_capacity(codeless.sum());
        for (ri, run) in runs.iter().enumerate() {
            match run.codes {
                Some(codes) => scan.scan_segment(codes, run.len(), ri),
                None => {
                    let rows = run.rows.chunks_exact(self.dim).enumerate();
                    tail.extend(rows.map(|(off, row)| run.hit(off, scorer.eval(row))));
                }
            }
        }
        Partial {
            streamed: scan.scanned(),
            hits: kept_hits(scan, runs),
            tail,
        }
    }

    /// Merges the passes over one query's stream into its answer.
    ///
    /// A pass hands back a set; the order is made here. Pooled hits are put in stream
    /// order first, so selecting by (score, index) is selecting by (score, stream
    /// position) — the order a single pass over the whole stream uses — and every
    /// global winner is present because it survived its own pass. Two-phase mode
    /// re-selects the global shortlist the same way (again as a set in stream order),
    /// re-scores it exactly from the runs' rows, and ranks the exactly scored codeless
    /// rows after it.
    pub fn finish<'a: 'p, 'p, I>(&self, partials: I) -> SearchResult
    where
        I: IntoIterator<Item = &'p Partial<'a>>,
        I::IntoIter: Clone,
    {
        // Sized once, like the runs (`candidate_runs` says why): the pooled hits, with
        // room for the codeless rows that join them in two-phase mode.
        let partials = partials.into_iter();
        let tails: usize = partials.clone().map(|p| p.tail.len()).sum();
        let pooled: usize = partials.clone().map(|p| p.hits.len()).sum();
        let mut hits = Vec::with_capacity(pooled + tails);
        let (mut tail, mut streamed) = (Vec::with_capacity(tails), 0);
        for p in partials {
            hits.extend_from_slice(&p.hits);
            tail.extend_from_slice(&p.tail);
            streamed += p.streamed;
        }
        hits.sort_unstable_by_key(|h| h.pos);
        let (mut scanned, mut compressed) = (streamed, 0);
        if let Some(adc) = &self.adc {
            if hits.len() > adc.shortlist {
                let pooled = u32::try_from(hits.len()).expect("pooled shortlists fit u32");
                let mut keep = topk::TopK::new(adc.shortlist);
                for (i, h) in (0..pooled).zip(&hits) {
                    keep.push(i, h.score);
                }
                // Kept positions ascend, so each survivor moves down onto a slot
                // already read.
                let kept = keep.into_kept();
                for (slot, &(i, _)) in kept.iter().enumerate() {
                    hits[slot] = hits[i as usize];
                }
                hits.truncate(kept.len());
            }
            let scorer = kernel::QueryScorer::new(self.distance, self.query);
            for h in &mut hits {
                h.score = scorer.eval(h.row);
            }
            tail.sort_unstable_by_key(|h| h.pos);
            hits.append(&mut tail);
            (scanned, compressed) = (hits.len(), streamed);
        }
        let ids = topk::smallest_k_by(hits.len(), self.k, |i| hits[i].score)
            .into_iter()
            .map(|i| hits[i].id as usize)
            .collect();
        SearchResult::new(ids, scanned).with_compressed_scanned(compressed)
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
                clean.iter().map(|r| (r.bin, r.ids)).collect::<Vec<_>>(),
                non_empty.map(|&b| (b, idx.bucket(b))).collect::<Vec<_>>()
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
            let mut pos = 0;
            for run in &runs {
                prop_assert!(!run.is_empty());
                prop_assert_eq!(run.pos, pos);
                pos += run.len();
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
