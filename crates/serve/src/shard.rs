//! Shard placement: a load-aware bin→shard map.
//!
//! The partitioner bounds how much of the database a query touches; a shard is a set
//! of bins whose share of that bounded work can be scored apart from the rest and
//! merged back. The unit of placement is the *bin*: [`ShardMap`] packs bins onto `S`
//! shards by greedy longest-processing-time (LPT) scheduling over recorded per-bin
//! probe loads (the counters [`crate::StatsSnapshot::bin_probes`] accumulates), falling
//! back to uniform packing when no stats exist. A shard is nothing more than its set
//! of bins: it scans the index's own bin-contiguous rows, codes and membins, so
//! re-packing the map moves no data.
//!
//! Placement is all this module knows. [`crate::QueryEngine`] holds a map and serves
//! through it — each query's candidate stream is grouped by owning shard, scored one
//! shard at a time and merged by stream position — so answers are **bit-identical for
//! any shard count and pool size**, in exact and compressed mode, on clean and mutated
//! indexes alike (`tests/shard_equivalence.rs` pins this across shard counts
//! {1, 2, 4, 7}).

use crate::stats::StatsSnapshot;

/// An assignment of every bin to exactly one of `S` shards, packed for balance.
///
/// Built by greedy LPT scheduling: bins are taken in decreasing load order (ties by
/// ascending bin id) and each goes to the currently lightest shard (ties by ascending
/// shard id) — a deterministic pure function of the load vector, so two replicas
/// computing a map from the same stats agree bit-for-bit. LPT's classic guarantee
/// bounds the skew: max shard load ≤ mean load + max single-bin load, hence ≤ 2× mean
/// whenever no single bin outweighs the mean (a single dominant bin is indivisible at
/// this granularity — the map stays deterministic, which is what the merge relies
/// on). The property tests at the bottom pin both.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ShardMap {
    /// `shard_of[bin]` = owning shard.
    shard_of: Vec<usize>,
    /// `bins_of[shard]` = owned bins, ascending.
    bins_of: Vec<Vec<usize>>,
    /// `loads[shard]` = total packed load (in the unit of the input load vector).
    loads: Vec<u64>,
}

impl ShardMap {
    /// Uniform fallback when no serving stats exist yet: every bin weighs 1, so LPT
    /// degenerates to round-robin placement.
    pub fn uniform(num_bins: usize, num_shards: usize) -> Self {
        Self::from_loads(&vec![1; num_bins], num_shards)
    }

    /// LPT packing of `loads[bin]` onto `num_shards` shards (see the type docs). An
    /// all-zero load vector (stats recorded but nothing probed yet) falls back to
    /// [`ShardMap::uniform`] — packing zeros would pile every bin onto shard 0.
    pub fn from_loads(loads: &[u64], num_shards: usize) -> Self {
        assert!(num_shards >= 1, "ShardMap: need at least one shard");
        if !loads.is_empty() && loads.iter().all(|&l| l == 0) {
            return Self::uniform(loads.len(), num_shards);
        }
        let mut order: Vec<usize> = (0..loads.len()).collect();
        order.sort_by(|&a, &b| loads[b].cmp(&loads[a]).then(a.cmp(&b)));
        let mut shard_loads = vec![0u64; num_shards];
        let mut shard_of = vec![0usize; loads.len()];
        for &bin in &order {
            let lightest = shard_loads
                .iter()
                .enumerate()
                .min_by_key(|&(s, &l)| (l, s))
                .map(|(s, _)| s)
                .expect("num_shards >= 1");
            shard_of[bin] = lightest;
            shard_loads[lightest] += loads[bin];
        }
        let mut bins_of = vec![Vec::new(); num_shards];
        for (bin, &s) in shard_of.iter().enumerate() {
            bins_of[s].push(bin);
        }
        Self {
            shard_of,
            bins_of,
            loads: shard_loads,
        }
    }

    /// A map re-packed from live serving stats, keeping this map's shard count. The
    /// rebalancing loop the per-bin probe counters exist for: serve, snapshot,
    /// rebuild, swap.
    pub fn rebuild_from_stats(&self, snapshot: &StatsSnapshot) -> Self {
        Self::from_loads(&snapshot.bin_probes, self.num_shards())
    }

    /// Number of shards (including any left empty by the packing).
    pub fn num_shards(&self) -> usize {
        self.bins_of.len()
    }

    /// Number of bins mapped.
    pub fn num_bins(&self) -> usize {
        self.shard_of.len()
    }

    /// The shard owning `bin`.
    pub fn shard_of(&self, bin: usize) -> usize {
        self.shard_of[bin]
    }

    /// Bins owned by `shard`, ascending.
    pub fn bins_of(&self, shard: usize) -> &[usize] {
        &self.bins_of[shard]
    }

    /// Packed per-shard loads (the balance diagnostic).
    pub fn shard_loads(&self) -> &[u64] {
        &self.loads
    }
}

#[cfg(test)]
mod tests {
    //! `ShardMap`'s unit tests, then the engine served through maps of several shard
    //! counts ([`QueryEngine::new`] is the one-shard row of every loop).
    use super::*;
    use crate::engine::{QueryEngine, QueryOptions};
    use std::sync::Arc;
    use usp_index::partitioner::RoundRobinPartitioner;
    use usp_index::scoring::{CodeQuantizer, Scoring};
    use usp_index::{MutationError, PartitionIndex, Partitioner, SearchResult};
    use usp_linalg::kernel::{AdcTable, QueryScorer};
    use usp_linalg::{Distance, Matrix};

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
    fn uniform_map_round_robins_bins() {
        let map = ShardMap::uniform(7, 3);
        assert_eq!(map.num_shards(), 3);
        assert_eq!(map.num_bins(), 7);
        // Equal loads: LPT assigns bin b to shard b % 3.
        for b in 0..7 {
            assert_eq!(map.shard_of(b), b % 3, "bin {b}");
        }
        assert_eq!(map.shard_loads(), &[3, 2, 2]);
        assert_eq!(map.bins_of(0), &[0, 3, 6]);
    }

    #[test]
    fn lpt_packs_heavy_bins_apart() {
        // Loads 10, 9, 1, 1, 1 on 2 shards: LPT separates the two heavy bins and
        // drips the light ones onto whichever side is lighter — a perfect 11/11 split
        // (naive in-order packing would produce 10 vs 12).
        let map = ShardMap::from_loads(&[10, 9, 1, 1, 1], 2);
        assert_ne!(map.shard_of(0), map.shard_of(1));
        assert_eq!(map.shard_loads(), &[11, 11]);
    }

    #[test]
    fn all_zero_loads_fall_back_to_uniform() {
        let map = ShardMap::from_loads(&[0, 0, 0, 0], 2);
        assert_eq!(map, ShardMap::uniform(4, 2));
        // ...and a mixed vector with some zero bins still spreads them.
        let map = ShardMap::from_loads(&[5, 0, 0, 5], 2);
        assert_ne!(map.shard_of(0), map.shard_of(3));
    }

    #[test]
    fn more_shards_than_bins_leaves_empty_shards() {
        let map = ShardMap::uniform(2, 5);
        assert_eq!(map.num_shards(), 5);
        assert_eq!(map.shard_loads().iter().filter(|&&l| l > 0).count(), 2);
        let index = small_index();
        // An engine over that map still answers correctly.
        let engine = QueryEngine::with_map(Arc::clone(&index), ShardMap::uniform(7, 11));
        let opts = QueryOptions::new(3, 2);
        let q = queries();
        for qi in 0..q.rows() {
            assert_eq!(
                engine.serve_batch(&q, &opts)[qi],
                index.search(q.row(qi), 3, 2)
            );
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

    /// `QueryEngine::new`, then `with_shards` for each of `more`.
    fn engines<P: Partitioner>(
        index: &Arc<PartitionIndex<P>>,
        more: &[usize],
    ) -> Vec<QueryEngine<P>> {
        let sharded = more
            .iter()
            .map(|&n| QueryEngine::with_shards(Arc::clone(index), n));
        std::iter::once(QueryEngine::new(Arc::clone(index)))
            .chain(sharded)
            .collect()
    }

    fn assert_budgets_match_the_scan(index: &Arc<PartitionIndex<RoundRobinPartitioner>>) {
        let q = queries();
        for engine in engines(index, &[2, 4]) {
            for budget in [0, 1, 4, 9, 1000] {
                let opts = QueryOptions::new(4, 5).with_rerank_budget(budget);
                assert_eq!(
                    engine.serve_batch(&q, &opts),
                    scan_reference(index, &q, &opts),
                    "shards={} budget={budget}",
                    engine.map().num_shards()
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
            for engine in engines(&index, &[3]) {
                assert_eq!(engine.serve_batch(&q, &opts), reference);
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
    fn rebalance_from_stats_moves_load_and_keeps_answers() {
        let index = small_index();
        let mut engine = QueryEngine::with_shards(Arc::clone(&index), 3);
        let q = queries();
        let opts = QueryOptions::new(3, 2);
        let before = engine.serve_batch(&q, &opts);
        engine.rebalance_from_stats();
        // The rebuilt map is packed from the recorded probe skew...
        assert_eq!(
            engine.map(),
            &ShardMap::from_loads(&engine.stats().bin_probes, 3)
        );
        // ...and the answers are unchanged.
        assert_eq!(engine.serve_batch(&q, &opts), before);
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
    fn compact_and_rebalance_folds_the_delta_and_matches_a_fresh_build() {
        let index = small_index();
        let mut engine = QueryEngine::with_shards(Arc::clone(&index), 3);
        // Clean index: the tick rebalances but reports no compaction.
        assert!(engine
            .compact_and_rebalance()
            .expect("no wal to fail")
            .is_none());
        let inserts: Vec<Vec<f32>> = (0..7)
            .map(|i| vec![i as f32 * 0.25 - 1.0, 1.5 - i as f32 * 0.1])
            .collect();
        for p in &inserts {
            engine.insert(p).expect("dims match");
        }
        assert_eq!(engine.delete(5), Ok(()));
        assert!(
            engine.needs_compaction(),
            "7 inserts + 1 delete on 60 points"
        );
        let report = engine
            .compact_and_rebalance()
            .expect("no wal to fail")
            .expect("compaction ran");
        assert_eq!(report.live_points, 60 + 7 - 1);
        assert_eq!(report.merged_inserts, 7);
        assert!(!engine.index().is_mutated());
        let snap = engine.stats();
        assert_eq!((snap.inserts, snap.deletes), (7, 1));
        // The swapped-in index answers like a fresh build over the final point set.
        let n = 60;
        let mut flat: Vec<f32> = (0..n * 2)
            .map(|i| ((i * 37 % 101) as f32) / 10.0 - 5.0)
            .collect();
        let dead_row = 5usize;
        flat.drain(dead_row * 2..dead_row * 2 + 2);
        for p in &inserts {
            flat.extend_from_slice(p);
        }
        let fresh = PartitionIndex::build(
            RoundRobinPartitioner::new(7),
            &Matrix::from_vec(n - 1 + inserts.len(), 2, flat),
            Distance::SquaredEuclidean,
        );
        let q = queries();
        let opts = QueryOptions::new(3, 4);
        let got = engine.serve_batch(&q, &opts);
        for qi in 0..q.rows() {
            assert_eq!(got[qi], fresh.search(q.row(qi), 3, 4), "query {qi}");
        }
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

    #[test]
    fn shard_point_counts_cover_the_dataset() {
        let index = small_index();
        let engine = QueryEngine::with_shards(Arc::clone(&index), 4);
        let counts = engine.shard_point_counts();
        assert_eq!(counts.len(), 4);
        assert_eq!(counts.iter().sum::<usize>(), 60);
        // On a dirty index the counts are the live points, not the CSR sizes.
        for id in [3usize, 10, 29] {
            assert!(index.delete(id));
        }
        let inserted = index.insert(&[0.5, -0.5]);
        index.insert(&[1.5, 2.5]);
        assert!(index.delete(inserted));
        let stats = index.mutation_stats();
        let live = stats.base_points + stats.inserts - stats.tombstones;
        assert_eq!(live, 60 - 3 + 1);
        let counts = engine.shard_point_counts();
        assert_eq!(counts.iter().sum::<usize>(), live);
        // Per shard, exactly the candidates its bins put on a stream.
        let delta = index.delta();
        for (shard, &count) in counts.iter().enumerate() {
            let runs = index.candidate_runs(engine.map().bins_of(shard), Some(&delta), None);
            assert_eq!(count, runs.iter().map(|r| r.len()).sum::<usize>());
        }
    }
}

#[cfg(test)]
mod proptests {
    use super::*;
    use proptest::prelude::*;

    proptest! {
        #[test]
        fn every_bin_lands_on_exactly_one_shard(
            loads in prop::collection::vec(0u64..1000, 1..120),
            num_shards in 1usize..9,
        ) {
            let map = ShardMap::from_loads(&loads, num_shards);
            prop_assert_eq!(map.num_bins(), loads.len());
            prop_assert_eq!(map.num_shards(), num_shards);
            // shard_of is total and consistent with bins_of: each bin appears in
            // exactly the one shard it maps to.
            let mut seen = vec![0usize; loads.len()];
            for s in 0..num_shards {
                for &b in map.bins_of(s) {
                    seen[b] += 1;
                    prop_assert_eq!(map.shard_of(b), s);
                }
            }
            prop_assert!(seen.iter().all(|&c| c == 1), "bin coverage {:?}", seen);
            // Deterministic: the same loads always produce the same map (the property
            // the per-shard merge relies on regardless of load skew).
            prop_assert_eq!(map, ShardMap::from_loads(&loads, num_shards));
        }

        #[test]
        fn lpt_bounds_the_maximum_shard_load(
            loads in prop::collection::vec(0u64..1000, 1..120),
            num_shards in 1usize..9,
        ) {
            let map = ShardMap::from_loads(&loads, num_shards);
            // The fallback rewrites all-zero loads as all-one; bound that vector.
            let effective: Vec<u64> = if loads.iter().all(|&l| l == 0) {
                vec![1; loads.len()]
            } else {
                loads.clone()
            };
            let total: u128 = effective.iter().map(|&l| l as u128).sum();
            let heaviest_bin = *effective.iter().max().unwrap() as u128;
            let max_shard = *map.shard_loads().iter().max().unwrap() as u128;
            let m = num_shards as u128;
            // Greedy guarantee, in exact integers: max ≤ mean + heaviest bin. When the
            // bin went to the lightest shard, that shard held ≤ total/m.
            prop_assert!(
                max_shard * m <= total + heaviest_bin * m,
                "max {} > mean + heaviest ({} + {})", max_shard, total / m, heaviest_bin
            );
            // Hence max ≤ 2× mean whenever no single bin outweighs the mean; a heavier
            // bin is indivisible at bin granularity, so only determinism (pinned
            // above) is promised there.
            if heaviest_bin * m <= total {
                prop_assert!(
                    max_shard * m <= 2 * total,
                    "max {} > 2x mean ({} / {})", max_shard, total, m
                );
            }
        }
    }
}
