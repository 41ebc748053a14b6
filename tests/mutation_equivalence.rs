//! Mutation equivalence harness: streaming inserts/deletes/compaction vs fresh builds.
//!
//! The mutation layer's contract has three levels, all pinned here against a
//! model-based reference (a plain list of the live points with their ids, ascending
//! by id — ids are never renumbered, so that is base points, then inserts in
//! insertion order). A fresh build over the model's points numbers them `0..n` in
//! that order, so its ids map to the index's through the ascending live ids:
//!
//! - **Uncompacted, exact mode** — a dirty index answers with the *same id set* as a
//!   fresh build over the final live point set (tie order inside the candidate
//!   stream matches too, because CSR-then-membin order is ascending-id order, but
//!   only the set is contractual). Tombstoned points never appear.
//! - **Cross-path** — on the same dirty index, the per-query `PartitionIndex::search`
//!   reference (`rank_bins` + `scan_bins` under a re-rank budget) and the batched
//!   `QueryEngine` answer **bit-identically**; an execution strategy is never a
//!   semantic change, mutated or not.
//! - **Compacted** — folding the delta keeps every live id and its row. In exact mode
//!   the compacted index answers bit-identically to the dirty index it folds; in
//!   exact *and* compressed mode (shared codebooks: compaction copies the base codes
//!   and encodes only the inserts, through the same `CodeQuantizer`) it answers
//!   bit-identically to `PartitionIndex::build` over the same final point set, ids
//!   mapped, and every CSR invariant holds by construction.
//!
//! CI's two full-suite runs put this file under `USP_NUM_THREADS=1` and `USP_NUM_THREADS=4`; the
//! proptests additionally pin both pool sizes inside each case.

use std::collections::{HashMap, HashSet};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Arc;
use std::time::Duration;

use neural_partitioner::serve::{MicroBatcher, QueryEngine, QueryOptions};
use proptest::prelude::*;
use rayon::with_num_threads;
use usp_index::partitioner::RoundRobinPartitioner;
use usp_index::{CodeQuantizer, MutationError, PartitionIndex, Partitioner, Scoring, SearchResult};
use usp_linalg::kernel::AdcTable;
use usp_linalg::{rng as lrng, Distance, Matrix};
use usp_quant::{ProductQuantizer, ProductQuantizerConfig};

const DIST: Distance = Distance::SquaredEuclidean;
/// Re-rank budget used by every compressed index in this suite (shared between the
/// mutated index and its fresh reference so the shortlist semantics line up).
const RERANK_BUDGET: usize = 16;
/// Deletes are skipped once the live set would drop below this floor, so top-k
/// searches stay meaningful for every generated workload.
const MIN_LIVE: usize = 8;

fn normal_points(n: usize, dim: usize, seed: u64) -> Matrix {
    lrng::normal_matrix(&mut lrng::seeded(seed), n, dim, 1.0)
}

/// One step of a streaming workload.
#[derive(Clone, Debug)]
enum Op {
    Insert(u64),
    Delete(u64),
    Compact,
}

/// Decodes proptest-generated `(selector, seed)` pairs into a workload: inserts in
/// the majority, deletes next, the occasional mid-stream compaction.
fn decode_ops(raw: &[(u8, u64)]) -> Vec<Op> {
    raw.iter()
        .map(|&(sel, seed)| match sel % 8 {
            0..=4 => Op::Insert(seed),
            5 | 6 => Op::Delete(seed),
            _ => Op::Compact,
        })
        .collect()
}

/// The model next to the index under test: the live points with their ids, in
/// ascending id order. Applying an op updates both sides.
struct Harness {
    idx: Arc<PartitionIndex<RoundRobinPartitioner>>,
    live: Vec<(usize, Vec<f32>)>,
    dim: usize,
}

impl Harness {
    fn new(idx: PartitionIndex<RoundRobinPartitioner>, base: &Matrix) -> Self {
        let live = (0..base.rows())
            .map(|i| (i, base.row(i).to_vec()))
            .collect();
        Self {
            idx: Arc::new(idx),
            live,
            dim: base.cols(),
        }
    }

    /// Applies the workload; a deterministic function of `ops`, so two harnesses fed
    /// the same workload (e.g. the exact and compressed twins) stay in lockstep.
    /// Each compaction is checked against the model and, in exact mode, against the
    /// dirty index's answers to `queries`.
    fn apply(&mut self, ops: &[Op], queries: &Matrix) {
        for (step, op) in ops.iter().enumerate() {
            match *op {
                Op::Insert(seed) => {
                    // Mix the step number in so repeated selector seeds still yield
                    // distinct points (distance ties would weaken set comparisons).
                    let mut rng = lrng::seeded(seed ^ ((step as u64) << 32) ^ 0x5eed);
                    let p: Vec<f32> = (0..self.dim)
                        .map(|_| lrng::standard_normal(&mut rng))
                        .collect();
                    let id = self.idx.insert(&p);
                    self.live.push((id, p));
                }
                Op::Delete(sel) => {
                    if self.live.len() <= MIN_LIVE {
                        continue;
                    }
                    let at = (sel as usize) % self.live.len();
                    let (id, _) = self.live.remove(at);
                    assert!(self.idx.delete(id), "live id {id} must be deletable");
                    assert!(!self.idx.delete(id), "double delete must report false");
                }
                Op::Compact => {
                    let (new, report) = self.idx.compacted();
                    assert_eq!(report.live_points, self.live.len());
                    for (id, p) in &self.live {
                        assert_eq!(new.point(*id), &p[..], "id {id} lost its point");
                    }
                    assert!(!new.is_mutated(), "compaction must leave a clean index");
                    if self.idx.quantizer().is_none() {
                        assert_exact_fold(&self.idx, &new, queries);
                    }
                    self.idx = Arc::new(new);
                }
            }
        }
    }

    /// The final live point set as a matrix, in ascending id order (fresh-build
    /// input).
    fn final_points(&self) -> Matrix {
        let flat: Vec<f32> = self
            .live
            .iter()
            .flat_map(|(_, p)| p.iter().copied())
            .collect();
        Matrix::from_vec(self.live.len(), self.dim, flat)
    }

    /// Maps a dirty-index global id to its row in [`Self::final_points`], i.e. to the
    /// id the fresh reference build assigns the same point.
    fn to_fresh_ids(&self) -> HashMap<usize, usize> {
        self.live
            .iter()
            .enumerate()
            .map(|(row, (id, _))| (*id, row))
            .collect()
    }

    /// The live ids, ascending.
    fn live_ids(&self) -> Vec<usize> {
        self.live.iter().map(|(id, _)| *id).collect()
    }

    /// `res` with each id mapped to the fresh reference build's id of the same point.
    fn to_fresh(&self, mut res: SearchResult) -> SearchResult {
        let to_fresh = self.to_fresh_ids();
        res.ids = res.ids.iter().map(|id| to_fresh[id]).collect();
        res
    }
}

/// Exact-mode compaction writes the dirty index's candidate stream down, so the
/// compacted index answers every query exactly like the index it folds, ids and
/// scan counts included, unbudgeted and budgeted.
fn assert_exact_fold(
    dirty: &PartitionIndex<RoundRobinPartitioner>,
    compacted: &PartitionIndex<RoundRobinPartitioner>,
    queries: &Matrix,
) {
    for qi in 0..queries.rows() {
        let q = queries.row(qi);
        let bins = dirty.partitioner().rank_bins(q, 3);
        for budget in [None, Some(5)] {
            assert_eq!(
                compacted.scan_bins(q, &bins, 5, budget),
                dirty.scan_bins(q, &bins, 5, budget),
                "query {qi}, budget {budget:?}: the fold changed an answer"
            );
        }
    }
}

/// CSR invariants of a clean index over the points `live` (ascending ids): offsets
/// monotone and covering, buckets ascending, every live id in exactly one bucket and
/// found back in it by [`PartitionIndex::bin_of`], and no other id anywhere.
fn assert_csr_invariants<P: Partitioner>(idx: &PartitionIndex<P>, live: &[usize]) {
    let off = idx.bin_offsets();
    assert_eq!(off[0], 0);
    assert!(off.windows(2).all(|w| w[0] <= w[1]), "offsets not monotone");
    assert_eq!(*off.last().unwrap(), live.len());
    let mut ids = Vec::with_capacity(live.len());
    for b in 0..idx.num_bins() {
        let bucket = idx.bucket(b);
        assert!(
            bucket.windows(2).all(|w| w[0] < w[1]),
            "bucket {b} not strictly ascending"
        );
        for &id in bucket {
            assert_eq!(
                idx.bin_of(id as usize),
                Some(b),
                "id {id} found in another bin"
            );
            ids.push(id as usize);
        }
    }
    ids.sort_unstable();
    assert_eq!(ids, live, "the CSR ids are not the live ids");
}

/// Cross-path bit-identity on a (possibly dirty) index: searcher vs the whole-stream
/// scan vs `QueryEngine`, unbudgeted and budgeted. Returns the per-query searcher
/// answers.
fn assert_cross_path(
    idx: &Arc<PartitionIndex<RoundRobinPartitioner>>,
    queries: &Matrix,
    k: usize,
    probes: usize,
) -> Vec<SearchResult> {
    let per_query: Vec<SearchResult> = (0..queries.rows())
        .map(|qi| idx.search(queries.row(qi), k, probes))
        .collect();
    let opts = QueryOptions::new(k, probes);
    assert_eq!(
        per_query,
        assert_every_path_agrees(idx, queries, &opts),
        "scan_bins diverged from the per-query searcher"
    );
    // Budget semantics are defined by one `scan_bins` over the whole stream; the
    // engine must replicate them under its batch-wide delta guard.
    assert_every_path_agrees(idx, queries, &opts.with_rerank_budget(5));
    per_query
}

/// The full exact-mode contract for one mutated harness.
fn check_exact(h: &Harness, queries: &Matrix, k: usize, probes: usize) {
    let fresh = PartitionIndex::build(
        RoundRobinPartitioner::new(h.idx.num_bins()),
        &h.final_points(),
        DIST,
    );
    let to_fresh = h.to_fresh_ids();
    let per_query = assert_cross_path(&h.idx, queries, k, probes);
    for (qi, res) in per_query.iter().enumerate() {
        // Tombstones never surface: every returned id must map to a live point.
        let mapped: HashSet<usize> = res
            .ids
            .iter()
            .map(|id| {
                *to_fresh
                    .get(id)
                    .unwrap_or_else(|| panic!("query {qi}: dead or unknown id {id} returned"))
            })
            .collect();
        let fresh_ids: HashSet<usize> = fresh
            .search(queries.row(qi), k, probes)
            .ids
            .into_iter()
            .collect();
        assert_eq!(
            mapped, fresh_ids,
            "query {qi}: dirty id set diverged from the fresh build"
        );
    }
    // Compacting folds the delta into an index that answers bit for bit like the
    // dirty one and like the fresh build, once its ids are mapped.
    let (compacted, _) = h.idx.compacted();
    assert_exact_fold(&h.idx, &compacted, queries);
    for qi in 0..queries.rows() {
        assert_eq!(
            h.to_fresh(compacted.search(queries.row(qi), k, probes)),
            fresh.search(queries.row(qi), k, probes),
            "query {qi}: compacted answer differs from the fresh build"
        );
    }
    assert_csr_invariants(&compacted, &h.live_ids());
}

/// The compressed-mode contract: cross-path identity while dirty, and post-compaction
/// bit-identity to a fresh compressed build sharing the *same* quantizer.
fn check_compressed(
    h: &Harness,
    pq: &Arc<ProductQuantizer>,
    queries: &Matrix,
    k: usize,
    probes: usize,
) {
    assert_cross_path(&h.idx, queries, k, probes);
    let fresh = PartitionIndex::build(
        RoundRobinPartitioner::new(h.idx.num_bins()),
        &h.final_points(),
        DIST,
    )
    .with_scoring(Scoring::compressed(
        Arc::clone(pq) as Arc<dyn usp_index::CodeQuantizer>,
        RERANK_BUDGET,
    ));
    let (compacted, _) = h.idx.compacted();
    for qi in 0..queries.rows() {
        assert_eq!(
            h.to_fresh(compacted.search(queries.row(qi), k, probes)),
            fresh.search(queries.row(qi), k, probes),
            "query {qi}: compacted compressed answer differs from the fresh build"
        );
    }
    assert_csr_invariants(&compacted, &h.live_ids());
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(8))]

    /// Random streaming workloads (inserts, deletes, mid-stream compactions) against
    /// the model, in exact and compressed mode, under both pool sizes.
    #[test]
    fn streaming_workloads_match_fresh_builds(
        seed in 0u64..1000,
        base_n in 12usize..40,
        dim in 2usize..5,
        bins in 2usize..7,
        raw_ops in prop::collection::vec((0u8..8, 0u64..1_000_000u64), 4..16),
    ) {
        let ops = decode_ops(&raw_ops);
        let base = normal_points(base_n, dim, seed);
        let queries = normal_points(4, dim, seed.wrapping_add(101));
        // One quantizer, fit once, shared by the mutated index and its fresh
        // reference: compaction must encode the inserts through these exact codebooks.
        let pq = with_num_threads(1, || {
            Arc::new(ProductQuantizer::fit(&base, &ProductQuantizerConfig::standard(2, 8)))
        });
        for threads in [1usize, 4] {
            with_num_threads(threads, || {
                let mut exact = Harness::new(
                    PartitionIndex::build(RoundRobinPartitioner::new(bins), &base, DIST),
                    &base,
                );
                exact.apply(&ops, &queries);
                check_exact(&exact, &queries, 5, 3);

                let compressed_idx =
                    PartitionIndex::build(RoundRobinPartitioner::new(bins), &base, DIST)
                        .with_scoring(Scoring::compressed(
                            Arc::clone(&pq) as Arc<dyn usp_index::CodeQuantizer>,
                            RERANK_BUDGET,
                        ));
                let mut compressed = Harness::new(compressed_idx, &base);
                compressed.apply(&ops, &queries);
                check_compressed(&compressed, &pq, &queries, 5, 3);
            });
        }
    }
}

/// Every serving path over one (possibly dirty) index under `opts`, asserted
/// bit-identical: the per-query scan (the reference) and `QueryEngine`.
fn assert_every_path_agrees(
    idx: &Arc<PartitionIndex<RoundRobinPartitioner>>,
    queries: &Matrix,
    opts: &QueryOptions,
) -> Vec<SearchResult> {
    let monolith: Vec<SearchResult> = (0..queries.rows())
        .map(|qi| {
            let q = queries.row(qi);
            let bins = idx.partitioner().rank_bins(q, opts.probes);
            idx.scan_bins(q, &bins, opts.k, opts.rerank_budget)
        })
        .collect();
    assert_eq!(
        monolith,
        QueryEngine::new(Arc::clone(idx)).serve_batch(queries, opts),
        "QueryEngine, budget {:?}",
        opts.rerank_budget
    );
    monolith
}

/// A compressed index whose probed bins hold no live base point: no code is
/// ADC-scored (`compressed_scanned == 0`) and every candidate is a membin row, which
/// has no code and is scored exactly. The mode must come from the index, never from
/// that count.
#[test]
fn compressed_index_with_only_membin_candidates_agrees_on_every_path() {
    let (n, dim, bins, k, probes) = (64, 4, 8, 3, 2);
    let base = normal_points(n, dim, 21);
    let queries = normal_points(3, dim, 22);
    let router = RoundRobinPartitioner::new(bins);
    let pq = Arc::new(ProductQuantizer::fit(
        &base,
        &ProductQuantizerConfig::standard(2, 8),
    ));
    let compressed = |points: &Matrix| {
        PartitionIndex::build(router.clone(), points, DIST).with_scoring(Scoring::compressed(
            Arc::clone(&pq) as Arc<dyn usp_index::CodeQuantizer>,
            RERANK_BUDGET,
        ))
    };
    let mut h = Harness::new(compressed(&base), &base);
    let unbudgeted = QueryOptions::new(k, probes);
    let budgets = [
        unbudgeted,
        unbudgeted.with_rerank_budget(1),
        unbudgeted.with_rerank_budget(1000),
    ];

    // Tombstone every base point of every bin any of the queries probes.
    let probed: HashSet<usize> = (0..queries.rows())
        .flat_map(|qi| router.rank_bins(queries.row(qi), probes))
        .collect();
    assert!(probed.len() < bins, "some bin must stay untouched");
    for id in 0..n {
        if probed.contains(&h.idx.bin_of(id).expect("a base point has a CSR row")) {
            assert!(h.idx.delete(id));
            h.live.retain(|(live, _)| *live != id);
        }
    }
    // All probed bins empty: every path answers nothing and scans nothing.
    for opts in &budgets {
        for res in assert_every_path_agrees(&h.idx, &queries, opts) {
            assert_eq!(res, SearchResult::empty());
        }
    }

    // A handful of inserts into the emptied bins (and whatever lands elsewhere on the
    // way), one of them deleted again.
    let mut landed = Vec::new();
    for seed in 0.. {
        if landed.len() == 6 {
            break;
        }
        let p = normal_points(1, dim, 1000 + seed).row(0).to_vec();
        let id = h.idx.insert(&p);
        if probed.contains(&router.assign(&p)) {
            landed.push(id);
        }
        h.live.push((id, p));
    }
    assert!(h.idx.delete(landed[1]));
    h.live.retain(|(live, _)| *live != landed[1]);

    // With nothing ADC-scored the dirty compressed index is an exact scan of the
    // probed live points, so an exact fresh build of the live set is its bit-for-bit
    // reference wherever the budget does not truncate that build's stream.
    let fresh = PartitionIndex::build(router.clone(), &h.final_points(), DIST);
    let to_fresh = h.to_fresh_ids();
    let mut scanned = 0;
    for opts in &budgets {
        let got = assert_every_path_agrees(&h.idx, &queries, opts);
        for (qi, res) in got.iter().enumerate() {
            assert_eq!(res.compressed_scanned, 0, "query {qi}: a code was scored");
            scanned += res.candidates_scanned;
            if opts.rerank_budget == Some(1) {
                continue;
            }
            let q = queries.row(qi);
            let bins = router.rank_bins(q, probes);
            let expect = fresh.scan_bins(q, &bins, k, opts.rerank_budget);
            let mapped: Vec<usize> = res.ids.iter().map(|id| to_fresh[id]).collect();
            assert_eq!(mapped, expect.ids, "query {qi}");
            assert_eq!(res.candidates_scanned, expect.candidates_scanned);
            assert_eq!(res.compressed_scanned, expect.compressed_scanned);
        }
    }
    assert!(scanned > 0, "the probed membins must hold candidates");

    // And folding the delta gives the compressed fresh build, codes and all.
    let (compacted, _) = h.idx.compacted();
    let fresh = compressed(&h.final_points());
    for qi in 0..queries.rows() {
        let q = queries.row(qi);
        assert_eq!(
            h.to_fresh(compacted.search(q, k, probes)),
            fresh.search(q, k, probes)
        );
    }
}

#[test]
fn compaction_threshold_and_report_bookkeeping() {
    let base = normal_points(20, 2, 3);
    let idx = PartitionIndex::build(RoundRobinPartitioner::new(3), &base, DIST);
    assert!(
        !idx.needs_compaction(),
        "a clean index never needs compaction"
    );
    let extra = normal_points(4, 2, 77);
    let mut ids = vec![idx.insert(extra.row(0))];
    assert!(!idx.needs_compaction(), "a delta of 1 is below 0.1 * 20");
    ids.push(idx.insert(extra.row(1)));
    assert!(
        idx.needs_compaction(),
        "a delta of 2 is exactly at 0.1 * 20"
    );
    ids.extend((2..4).map(|i| idx.insert(extra.row(i))));
    assert_eq!(
        ids,
        vec![20, 21, 22, 23],
        "inserts take the next ids after the build's 0..20"
    );
    assert!(idx.delete(ids[1]), "inserted point is deletable");
    assert!(idx.delete(5), "base point is deletable");
    let stats = idx.mutation_stats();
    assert_eq!(
        (
            stats.base_points,
            stats.inserts,
            stats.live_inserts,
            stats.tombstones
        ),
        (20, 4, 3, 2)
    );

    let (idx, report) = idx.compacted();
    assert_eq!(report.live_points, 22); // 20 - 1 dead base + 3 live inserts
    assert_eq!(report.merged_inserts, 3);
    assert_eq!(report.dropped_tombstones, 2);
    // Ids kept: the dropped ones stay dropped and the next insert takes a new one.
    let live: Vec<usize> = (0..24).filter(|&id| id != 5 && id != 21).collect();
    assert_csr_invariants(&idx, &live);
    for gone in [5, 21] {
        assert_eq!(idx.bin_of(gone), None);
        assert_eq!(
            idx.try_delete(gone),
            Err(MutationError::AlreadyDeleted { id: gone })
        );
    }
    assert!(!idx.is_mutated());
    assert!(!idx.needs_compaction());
    assert_eq!(idx.mutation_stats().base_points, 22);
    assert_eq!(idx.insert(extra.row(0)), 24);
}

/// A [`CodeQuantizer`] that counts its `encode_into` calls.
struct CountingQuantizer {
    inner: ProductQuantizer,
    encodes: AtomicUsize,
}

impl CountingQuantizer {
    fn encodes(&self) -> usize {
        // ordering: SeqCst, as in `encode_into`.
        self.encodes.load(Ordering::SeqCst)
    }
}

impl CodeQuantizer for CountingQuantizer {
    fn dim(&self) -> usize {
        self.inner.dim()
    }
    fn code_len(&self) -> usize {
        self.inner.code_len()
    }
    fn encode_into(&self, point: &[f32], out: &mut [u8]) {
        // ordering: SeqCst, a test counter kept simple; the pool region's join
        // already orders every increment before the reads in `encodes`.
        self.encodes.fetch_add(1, Ordering::SeqCst);
        self.inner.encode_into(point, out);
    }
    fn adc_table(&self, distance: Distance, query: &[f32]) -> AdcTable {
        self.inner.adc_table(distance, query)
    }
}

/// Compaction copies every base code as it is and encodes each live membin row
/// once: no base row, and no deleted insert, goes through the quantizer again.
#[test]
fn compaction_encodes_only_the_live_inserts() {
    let base = normal_points(40, 4, 31);
    let counting = Arc::new(CountingQuantizer {
        inner: ProductQuantizer::fit(&base, &ProductQuantizerConfig::standard(2, 8)),
        encodes: AtomicUsize::new(0),
    });
    let idx = PartitionIndex::build(RoundRobinPartitioner::new(4), &base, DIST).with_scoring(
        Scoring::compressed(
            Arc::clone(&counting) as Arc<dyn CodeQuantizer>,
            RERANK_BUDGET,
        ),
    );
    assert_eq!(counting.encodes(), 40, "the build encodes once a row");
    let extra = normal_points(6, 4, 32);
    let ids: Vec<usize> = (0..6).map(|i| idx.insert(extra.row(i))).collect();
    assert!(idx.delete(ids[2]) && idx.delete(3) && idx.delete(17));
    let (compacted, report) = idx.compacted();
    assert_eq!(report.merged_inserts, 5);
    assert_eq!(
        counting.encodes(),
        40 + 5,
        "compaction must encode the 5 live inserts and nothing else"
    );
    // And the codes it wrote are the codes a fresh encoding gives.
    for b in 0..compacted.num_bins() {
        let codes = compacted.bin_codes(b).expect("compressed");
        for (j, &id) in compacted.bucket(b).iter().enumerate() {
            let mut code = vec![0u8; counting.code_len()];
            counting
                .inner
                .encode_into(compacted.point(id as usize), &mut code);
            assert_eq!(&codes[j * code.len()..(j + 1) * code.len()], &code[..]);
        }
    }
}

#[test]
fn mutated_micro_batcher_survives_submits_racing_drop() {
    // The panic-safety rework of the flusher must not regress orderly shutdown on
    // the mutated serving path: submits racing the batcher's Drop either get the
    // correct answer or a clean disconnect — never a hang, never a wrong answer.
    let base = normal_points(80, 3, 9);
    let idx = Arc::new(PartitionIndex::build(
        RoundRobinPartitioner::new(4),
        &base,
        DIST,
    ));
    let fresh = normal_points(6, 3, 10);
    for i in 0..6 {
        idx.insert(fresh.row(i));
    }
    assert!(idx.delete(12) && idx.delete(81));
    let queries = normal_points(8, 3, 11);
    let opts = QueryOptions::new(3, 2);
    let reference: Vec<SearchResult> = (0..queries.rows())
        .map(|qi| idx.search(queries.row(qi), opts.k, opts.probes))
        .collect();

    let engine = Arc::new(QueryEngine::new(Arc::clone(&idx)));
    let batcher = Arc::new(MicroBatcher::new(engine, opts, 8, Duration::from_millis(1)));
    let workers: Vec<_> = (0..4)
        .map(|t| {
            let batcher = Arc::clone(&batcher);
            let queries = queries.clone();
            // lint:allow(raw-thread-spawn): this test drives the batcher from real
            // concurrent submitters; routing through the pool would serialize them
            std::thread::spawn(move || {
                (0..20)
                    .map(|i| {
                        let qi = (t * 5 + i) % queries.rows();
                        (qi, batcher.submit(queries.row(qi).to_vec()))
                    })
                    .collect::<Vec<_>>()
            })
        })
        .collect();
    drop(batcher); // race shutdown against the submitting threads
    for worker in workers {
        for (qi, rx) in worker.join().expect("submitting thread must not panic") {
            // A RecvError means shutdown won the race: disconnect, not a hang.
            if let Ok(res) = rx.recv() {
                assert_eq!(res, reference[qi], "query {qi} answered wrongly");
            }
        }
    }
}
