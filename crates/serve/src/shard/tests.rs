//! The engine served at several shard counts against the one-shard engine and the
//! searcher ([`QueryEngine::new`] is the one-shard row of every loop): a shard is a
//! count, bin `b` on shard `b % S`, so no answer, budget, counter or refusal may
//! depend on it.
use crate::engine::{QueryEngine, QueryOptions};
use std::sync::Arc;
use usp_index::partitioner::RoundRobinPartitioner;
use usp_index::scoring::{CodeQuantizer, Scoring};
use usp_index::{MutationError, PartitionIndex, Partitioner, SearchResult};
use usp_linalg::kernel::{AdcTable, QueryScorer};
use usp_linalg::{Distance, Matrix};

/// 60 deterministic 2-D points hashed into 7 bins.
fn small_build() -> PartitionIndex<RoundRobinPartitioner> {
    let n = 60;
    let data: Vec<f32> = (0..n * 2)
        .map(|i| ((i * 37 % 101) as f32) / 10.0 - 5.0)
        .collect();
    let data = Matrix::from_vec(n, 2, data);
    PartitionIndex::build(
        RoundRobinPartitioner::new(7),
        &data,
        Distance::SquaredEuclidean,
    )
}

fn small_index() -> Arc<PartitionIndex<RoundRobinPartitioner>> {
    Arc::new(small_build())
}

fn queries() -> Matrix {
    Matrix::from_vec(
        6,
        2,
        vec![0.1, 0.2, -1.0, 3.0, 2.5, 2.5, -4.0, 0.0, 1.0, 1.0, 0.0, 0.0],
    )
}

#[test]
fn more_shards_than_bins_leaves_empty_shards() {
    // 11 shards over 7 bins: shards 7..11 own no bin and are never scanned.
    let index = small_index();
    let engine = QueryEngine::with_shards(Arc::clone(&index), 11);
    let q = queries();
    for &(k, probes) in &[(3usize, 2usize), (5, 7)] {
        let opts = QueryOptions::new(k, probes);
        let got = engine.serve_batch(&q, &opts);
        for qi in 0..q.rows() {
            assert_eq!(got[qi], index.search(q.row(qi), k, probes), "k={k}");
        }
    }
}

#[test]
fn sharded_answers_match_monolith_for_every_shard_count() {
    let index = small_index();
    let q = queries();
    for shards in [1, 2, 3, 7] {
        let engine = QueryEngine::with_shards(Arc::clone(&index), shards);
        for &(k, probes) in &[(1usize, 1usize), (3, 2), (5, 7)] {
            let opts = QueryOptions::new(k, probes);
            let got = engine.serve_batch(&q, &opts);
            for qi in 0..q.rows() {
                let expect = index.search(q.row(qi), k, probes);
                assert_eq!(got[qi], expect, "shards={shards} k={k} probes={probes}");
                assert_eq!(engine.query(q.row(qi), &opts), expect);
            }
        }
    }
}

/// The budgeted reference: per-query `rank_bins` + one `scan_bins` over the whole
/// stream — no batching, no grouping by shard.
fn scan_reference<P: Partitioner>(
    index: &PartitionIndex<P>,
    q: &Matrix,
    opts: &QueryOptions,
) -> Vec<SearchResult> {
    (0..q.rows())
        .map(|qi| {
            let bins = index.partitioner().rank_bins(q.row(qi), opts.probes);
            index.scan_bins(q.row(qi), &bins, opts.k, opts.rerank_budget)
        })
        .collect()
}

/// `QueryEngine::new`, then `with_shards` for each of `more`, each with its count.
fn engines<P: Partitioner>(
    index: &Arc<PartitionIndex<P>>,
    more: &[usize],
) -> Vec<(usize, QueryEngine<P>)> {
    let sharded = more
        .iter()
        .map(|&n| (n, QueryEngine::with_shards(Arc::clone(index), n)));
    std::iter::once((1, QueryEngine::new(Arc::clone(index))))
        .chain(sharded)
        .collect()
}

fn assert_budgets_match_the_scan(index: &Arc<PartitionIndex<RoundRobinPartitioner>>) {
    let q = queries();
    for (shards, engine) in engines(index, &[2, 4]) {
        for budget in [0, 1, 4, 9, 1000] {
            let opts = QueryOptions::new(4, 5).with_rerank_budget(budget);
            assert_eq!(
                engine.serve_batch(&q, &opts),
                scan_reference(index, &q, &opts),
                "shards={shards} budget={budget}"
            );
        }
    }
}

#[test]
fn rerank_budget_matches_unsharded_engine() {
    assert_budgets_match_the_scan(&small_index());
}

/// Two bits per point — the signs of its coordinates — decoded to (±2.5, ±2.5).
struct SignBits;

impl CodeQuantizer for SignBits {
    fn dim(&self) -> usize {
        2
    }
    fn code_len(&self) -> usize {
        1
    }
    fn encode_into(&self, point: &[f32], out: &mut [u8]) {
        out[0] = (point[0] > 0.0) as u8 | ((point[1] > 0.0) as u8) << 1;
    }
    fn adc_table(&self, distance: Distance, query: &[f32]) -> AdcTable {
        let scorer = QueryScorer::new(distance, query);
        let side = |bit: u8| if bit == 0 { -2.5 } else { 2.5 };
        AdcTable::Sum {
            table: (0..4u8)
                .map(|c| scorer.eval(&[side(c & 1), side(c >> 1)]))
                .collect(),
            n_centroids: 4,
        }
    }
}

#[test]
fn stats_record_like_the_monolith() {
    let compressed_dirty =
        Arc::new(small_build().with_scoring(Scoring::compressed(Arc::new(SignBits), 5)));
    for id in [2usize, 31, 47] {
        assert!(compressed_dirty.delete(id));
    }
    for i in 0..4 {
        compressed_dirty.insert(&[0.4 * i as f32 - 1.0, 1.0 - 0.6 * i as f32]);
    }
    let q = queries();
    let opts = QueryOptions::new(2, 3);
    for index in [small_index(), compressed_dirty] {
        // What the counters must say, from the per-query scan alone.
        let reference = scan_reference(&index, &q, &opts);
        let mean = |f: fn(&SearchResult) -> usize| {
            reference.iter().map(f).sum::<usize>() as f64 / q.rows() as f64
        };
        let mut bin_probes = vec![0u64; index.num_bins()];
        for qi in 0..q.rows() {
            for b in index.partitioner().rank_bins(q.row(qi), opts.probes) {
                bin_probes[b] += 1;
            }
        }
        let compressed = index.quantizer().is_some();
        for (shards, engine) in engines(&index, &[3]) {
            assert_eq!(engine.serve_batch(&q, &opts), reference, "shards={shards}");
            let s = engine.stats();
            assert_eq!((s.queries, s.batches), (q.rows() as u64, 1));
            assert_eq!(s.bin_probes, bin_probes);
            assert_eq!(s.mean_candidates, mean(|r| r.candidates_scanned));
            assert_eq!(s.mean_compressed_candidates, mean(|r| r.compressed_scanned));
            assert_eq!(s.mean_compressed_candidates > 0.0, compressed);
            engine.reset_stats();
            assert_eq!(engine.stats().queries, 0);
        }
    }
}

#[test]
fn mutated_sharded_answers_match_the_dirty_monolith() {
    let index = small_index();
    // Dirty the index across several bins: tombstones on base points plus
    // hash-routed inserts (one of which is tombstoned again).
    for id in [3usize, 10, 29, 44] {
        assert!(index.delete(id));
    }
    let mut inserted = Vec::new();
    for i in 0..5 {
        inserted.push(index.insert(&[i as f32 * 0.7 - 1.4, 2.0 - i as f32 * 0.5]));
    }
    assert!(index.delete(inserted[2]));
    let q = queries();
    for shards in [1, 2, 3, 7] {
        let engine = QueryEngine::with_shards(Arc::clone(&index), shards);
        for &(k, probes) in &[(1usize, 1usize), (3, 2), (5, 7)] {
            let opts = QueryOptions::new(k, probes);
            let got = engine.serve_batch(&q, &opts);
            for qi in 0..q.rows() {
                let expect = index.search(q.row(qi), k, probes);
                assert_eq!(got[qi], expect, "shards={shards} k={k} probes={probes}");
                assert!(
                    !got[qi]
                        .ids
                        .iter()
                        .any(|&id| [3, 10, 29, 44, inserted[2]].contains(&id)),
                    "tombstoned id served (shards={shards})"
                );
            }
        }
    }
}

#[test]
fn dirty_rerank_budget_matches_unsharded_engine() {
    let index = small_index();
    for id in [0usize, 17, 18, 52] {
        assert!(index.delete(id));
    }
    for i in 0..4 {
        index.insert(&[1.0 - i as f32, i as f32 * 0.3]);
    }
    assert_budgets_match_the_scan(&index);
}

#[test]
fn mutation_refusals_are_typed_like_every_other_path() {
    // The sharded write path must return the same `MutationError` values as
    // the searcher and the unsharded engine — a shard boundary is never a
    // semantic change, refusals included. Refused ops record no stats.
    let index = small_index();
    let engine = QueryEngine::with_shards(Arc::clone(&index), 3);
    assert_eq!(
        engine.insert(&[1.0]),
        Err(MutationError::DimsMismatch { got: 1, want: 2 })
    );
    assert_eq!(
        engine.delete(10_000),
        Err(MutationError::UnknownId { id: 10_000 })
    );
    assert_eq!(engine.delete(4), Ok(()));
    assert_eq!(
        engine.delete(4),
        Err(MutationError::AlreadyDeleted { id: 4 })
    );
    let snap = engine.stats();
    assert_eq!((snap.inserts, snap.deletes), (0, 1));
}

#[test]
fn nan_queries_stay_deterministic_and_equivalent() {
    let index = small_index();
    let engine = QueryEngine::with_shards(Arc::clone(&index), 4);
    let nan_q = [f32::NAN, f32::NAN];
    let opts = QueryOptions::new(3, 2);
    let r1 = engine.query(&nan_q, &opts);
    assert_eq!(r1, engine.query(&nan_q, &opts));
    assert_eq!(r1, index.search(&nan_q, 3, 2));
}
