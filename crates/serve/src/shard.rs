//! Sharded serving: a load-aware bin→shard map and a scatter/gather engine.
//!
//! The partitioner bounds how much of the database a query touches; sharding splits
//! that bounded work across workers so hot bins do not serialize a query stream. The
//! unit of placement is the *bin*: [`ShardMap`] packs bins onto `S` shards by greedy
//! longest-processing-time (LPT) scheduling over recorded per-bin probe loads (the
//! counters [`crate::StatsSnapshot::bin_probes`] accumulates), falling back to uniform
//! packing when no stats exist. A shard is nothing more than its set of bins: it scans
//! the index's own bin-contiguous rows, codes and membins, so re-packing the map moves
//! no data.
//!
//! [`ShardedEngine::serve_batch`] is a three-phase scatter/gather over the query's
//! candidate stream ([`usp_index::stream`]):
//!
//! 1. **Route** — rank every query's bins in **one** batched partitioner forward
//!    ([`Partitioner::rank_bins_batch`], a single GEMM for neural partitioners),
//!    produce each query's (budgeted) stream of runs, and deal the runs to the shards
//!    owning their bins — every run keeps its position in the whole stream;
//! 2. **Scatter** — run the flattened (query, shard) tasks on the persistent worker
//!    pool, each one [`Consumer::pass`] over its runs;
//! 3. **Gather** — [`Consumer::finish`] each query's passes.
//!
//! The unsharded [`crate::QueryEngine`] is the one-task case of the same pass→finish
//! pair over the same runs, so merged answers are **bit-identical to the monolith for
//! any shard count and pool size**, in exact and compressed mode, on clean and mutated
//! indexes alike — `tests/shard_equivalence.rs` pins this across shard counts
//! {1, 2, 4, 7}, pool sizes, per-request knobs (including re-rank budgets) and
//! micro-batched submissions.

use std::sync::Arc;
use std::time::Instant;

use rayon::prelude::*;
use usp_index::mutation::MutationState;
use usp_index::stream::{Consumer, Partial, Run};
use usp_index::{CompactionReport, MutationError, PartitionIndex, Partitioner, SearchResult};
use usp_linalg::kernel::AdcTable;
use usp_linalg::Matrix;

use crate::engine::{BatchEngine, QueryOptions};
use crate::stats::{ServeStats, StatsSnapshot};

/// An assignment of every bin to exactly one of `S` shards, packed for balance.
///
/// Built by greedy LPT scheduling: bins are taken in decreasing load order (ties by
/// ascending bin id) and each goes to the currently lightest shard (ties by ascending
/// shard id) — a deterministic pure function of the load vector, so two replicas
/// computing a map from the same stats agree bit-for-bit. LPT's classic guarantee
/// bounds the skew: max shard load ≤ mean load + max single-bin load, hence ≤ 2× mean
/// whenever no single bin outweighs the mean (a single dominant bin is indivisible at
/// this granularity — the map stays deterministic, which is what the gather relies
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

/// Everything the router decided about one query.
struct Route<'a> {
    consumer: Consumer<'a>,
    /// Per touched shard, its runs of the query's stream, in stream order.
    tasks: Vec<Vec<Run<'a>>>,
    route_us: u64,
}

/// A sharded scatter/gather serving engine, answer-equivalent to [`crate::QueryEngine`].
///
/// The index stays behind an `Arc` and is the only holder of points; the map says
/// which shard scans which of its bins. Statistics are recorded exactly like the
/// monolith's (per-query latency is the scatter/gather critical path: route + slowest
/// shard + merge).
pub struct ShardedEngine<P: Partitioner> {
    index: Arc<PartitionIndex<P>>,
    map: ShardMap,
    stats: ServeStats,
}

impl<P: Partitioner> ShardedEngine<P> {
    /// Shards `index` according to `map`.
    pub fn new(index: Arc<PartitionIndex<P>>, map: ShardMap) -> Self {
        assert_eq!(
            map.num_bins(),
            index.num_bins(),
            "ShardedEngine: map covers {} bins but the index has {}",
            map.num_bins(),
            index.num_bins()
        );
        let bins = index.num_bins();
        Self {
            index,
            map,
            stats: ServeStats::new(bins),
        }
    }

    /// Shards `index` uniformly over `num_shards` shards (no stats needed).
    pub fn with_shards(index: Arc<PartitionIndex<P>>, num_shards: usize) -> Self {
        let map = ShardMap::uniform(index.num_bins(), num_shards);
        Self::new(index, map)
    }

    /// The bin→shard map in force.
    pub fn map(&self) -> &ShardMap {
        &self.map
    }

    /// The routing index.
    pub fn index(&self) -> &PartitionIndex<P> {
        &self.index
    }

    /// Number of live points each shard scans over (the storage-balance diagnostic):
    /// per owned bin, its live base points plus its live inserted points.
    pub fn shard_point_counts(&self) -> Vec<usize> {
        let delta = self.index.delta();
        let live = |&b: &usize| {
            self.index.bucket(b).len() - delta.csr_dead_in_bin(b) + delta.membin(b).live()
        };
        (0..self.map.num_shards())
            .map(|s| self.map.bins_of(s).iter().map(live).sum())
            .collect()
    }

    /// Re-packs the bin→shard map from the probe loads recorded since construction (or
    /// the last stats reset). Counters are kept — the next rebalance sees the full
    /// history. Only the placement moves: shards hold no data of their own, so the
    /// answers cannot change.
    pub fn rebalance_from_stats(&mut self) {
        self.map = self.map.rebuild_from_stats(&self.stats.snapshot());
    }

    /// Inserts a point through the routing index's streaming write path (see
    /// [`PartitionIndex::try_insert`]). The point lands in its bin's membin, so it
    /// is served by whichever shard owns that bin. With a WAL
    /// attached, `Ok` means the record is on the log (append-before-ack).
    pub fn insert(&self, point: &[f32]) -> Result<usize, MutationError> {
        let id = self.index.try_insert(point)?;
        self.stats.record_insert();
        Ok(id)
    }

    /// Tombstones a point (see [`PartitionIndex::try_delete`]).
    pub fn delete(&self, id: usize) -> Result<(), MutationError> {
        self.index.try_delete(id)?;
        self.stats.record_delete();
        Ok(())
    }

    /// Whether the routing index's outstanding delta crossed its compaction
    /// threshold (see [`PartitionIndex::needs_compaction`]).
    pub fn needs_compaction(&self) -> bool {
        self.index.needs_compaction()
    }

    /// The maintenance tick of a mutable sharded deployment: if the delta crossed
    /// the compaction threshold, folds it into a fresh index
    /// ([`PartitionIndex::compacted_with_checkpoint`] — which also runs the WAL
    /// checkpoint/truncate protocol and moves the log onto the new index) and
    /// swaps it in; then re-packs the bin→shard map from the recorded probe loads
    /// either way ([`Self::rebalance_from_stats`]). Returns the compaction report — with
    /// its id remapping — when a compaction ran. On `Err` (a checkpoint that could
    /// not reach storage) nothing is swapped: the old index, its delta, and its
    /// log are all intact.
    pub fn compact_and_rebalance(&mut self) -> Result<Option<CompactionReport>, MutationError>
    where
        P: Clone,
    {
        let report = if self.index.needs_compaction() {
            let (compacted, report) = self.index.compacted_with_checkpoint()?;
            self.index = Arc::new(compacted);
            Some(report)
        } else {
            None
        };
        self.rebalance_from_stats();
        Ok(report)
    }

    /// Answers one query immediately (recorded as a batch of one).
    pub fn query(&self, query: &[f32], opts: &QueryOptions) -> SearchResult {
        let queries = Matrix::from_vec(1, query.len(), query.to_vec());
        self.serve_batch(&queries, opts)
            .pop()
            .expect("one query in, one answer out")
    }

    /// Scatter/gather batch serving (see the module docs for the three phases).
    ///
    /// Results come back in request order and are bit-identical to the unsharded
    /// [`crate::QueryEngine::serve_batch`] for any shard count and pool size.
    pub fn serve_batch(&self, queries: &Matrix, opts: &QueryOptions) -> Vec<SearchResult> {
        let t0 = Instant::now();
        // One read guard spans all three phases, so inserts and deletes racing the
        // batch serialize before or after it — never between route and scatter. A
        // clean index takes no lock.
        let delta = self.index.is_mutated().then(|| self.index.delta());

        // Phase 1 — route: one batched partitioner forward ranks every query's bins
        // (a single GEMM for neural partitioners; bit-identical per row to the
        // per-query forward by the Partitioner batch contract), then each query's
        // stream is dealt to the shards in parallel over queries.
        let ranked = self
            .index
            .partitioner()
            .rank_bins_batch(queries, opts.probes);
        let rank_share_us = (t0.elapsed().as_micros() as u64) / (queries.rows().max(1) as u64);
        // Compressed indexes amortise ADC-table construction across the batch, exactly
        // like the monolith engine: one table per query, shared by every scatter task
        // of that query. `None` for exact indexes.
        let tables = self.index.adc_tables_batch(queries);
        let routes: Vec<Route> = (0..queries.rows())
            .into_par_iter()
            .map(|qi| {
                let table = tables.as_ref().map(|t| &t[qi]);
                let query = queries.row(qi);
                self.route(
                    query,
                    &ranked[qi],
                    opts,
                    table,
                    delta.as_deref(),
                    rank_share_us,
                )
            })
            .collect();

        // Phase 2 — scatter: one task per (query, shard) pair, flattened so the pool
        // load-balances across both axes. Query `qi` owns `starts[qi]..starts[qi + 1]`.
        let tasks: Vec<(usize, &[Run])> = routes
            .iter()
            .enumerate()
            .flat_map(|(qi, r)| r.tasks.iter().map(move |runs| (qi, &runs[..])))
            .collect();
        let mut starts = vec![0usize; queries.rows() + 1];
        for (qi, r) in routes.iter().enumerate() {
            starts[qi + 1] = starts[qi] + r.tasks.len();
        }
        let partials: Vec<(Partial, u64)> = tasks
            .par_iter()
            .map(|&(qi, runs)| {
                let t = Instant::now();
                let partial = routes[qi].consumer.pass(runs);
                (partial, t.elapsed().as_micros() as u64)
            })
            .collect();

        // Phase 3 — gather: finish each query's passes (parallel over queries; the
        // ordered collect keeps request order). Latency is the critical path: route +
        // slowest shard + merge.
        let merged: Vec<(SearchResult, u64)> = (0..queries.rows())
            .into_par_iter()
            .map(|qi| {
                let t = Instant::now();
                let mine = &partials[starts[qi]..starts[qi + 1]];
                let result = routes[qi].consumer.finish(mine.iter().map(|(p, _)| p));
                let slowest = mine.iter().map(|&(_, us)| us).max().unwrap_or(0);
                let merge_us = t.elapsed().as_micros() as u64;
                (result, routes[qi].route_us + slowest + merge_us)
            })
            .collect();

        let busy = t0.elapsed().as_micros() as u64;
        let latencies: Vec<u64> = merged.iter().map(|(_, us)| *us).collect();
        let scanned = merged.iter().map(|(r, _)| r.candidates_scanned as u64);
        let compressed = merged.iter().map(|(r, _)| r.compressed_scanned as u64);
        self.stats.record_batch(
            &latencies,
            ranked.iter().flat_map(|bins| bins.iter().copied()),
            scanned.sum(),
            compressed.sum(),
            busy,
        );
        merged.into_iter().map(|(r, _)| r).collect()
    }

    /// Serving statistics accumulated since construction (or the last reset),
    /// with the routing index's WAL counters overlaid when a log is attached.
    pub fn stats(&self) -> StatsSnapshot {
        let mut snap = self.stats.snapshot();
        if let Some(w) = self.index.wal_stats() {
            snap.overlay_wal(&w);
        }
        snap
    }

    /// Clears the serving statistics.
    pub fn reset_stats(&self) {
        self.stats.reset();
    }

    /// Pre-spawns the pool workers (see [`BatchEngine::warm_up`]).
    pub fn warm_up(&self) {
        BatchEngine::warm_up(self)
    }

    /// Phase 1 for one query: produce its stream exactly as the monolith would — same
    /// consumer, same cap — and deal the runs to the shards owning their bins
    /// (`rank_share_us` is this query's share of the batched bin-ranking forward,
    /// folded into the recorded route latency).
    fn route<'a>(
        &'a self,
        query: &'a [f32],
        bins: &[usize],
        opts: &QueryOptions,
        table: Option<&'a AdcTable>,
        delta: Option<&'a MutationState>,
        rank_share_us: u64,
    ) -> Route<'a> {
        let t0 = Instant::now();
        let consumer = self
            .index
            .consumer(query, opts.k, opts.rerank_budget, table);
        let mut tasks = vec![Vec::new(); self.map.num_shards()];
        for run in self.index.candidate_runs(bins, delta, consumer.cap()) {
            tasks[self.map.shard_of(run.bin)].push(run);
        }
        tasks.retain(|runs| !runs.is_empty());
        Route {
            consumer,
            tasks,
            route_us: rank_share_us + t0.elapsed().as_micros() as u64,
        }
    }
}

impl<P: Partitioner> BatchEngine for ShardedEngine<P> {
    fn dims(&self) -> usize {
        self.index.dims()
    }

    fn serve_batch(&self, queries: &Matrix, opts: &QueryOptions) -> Vec<SearchResult> {
        ShardedEngine::serve_batch(self, queries, opts)
    }

    fn insert(&self, point: &[f32]) -> Result<usize, MutationError> {
        ShardedEngine::insert(self, point)
    }

    fn delete(&self, id: usize) -> Result<(), MutationError> {
        ShardedEngine::delete(self, id)
    }

    fn stats(&self) -> StatsSnapshot {
        ShardedEngine::stats(self)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::engine::QueryEngine;
    use usp_index::partitioner::RoundRobinPartitioner;
    use usp_linalg::Distance;

    fn small_index() -> Arc<PartitionIndex<RoundRobinPartitioner>> {
        let n = 60;
        let data: Vec<f32> = (0..n * 2)
            .map(|i| ((i * 37 % 101) as f32) / 10.0 - 5.0)
            .collect();
        let data = Matrix::from_vec(n, 2, data);
        Arc::new(PartitionIndex::build(
            RoundRobinPartitioner::new(7),
            &data,
            Distance::SquaredEuclidean,
        ))
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
        let engine = ShardedEngine::new(Arc::clone(&index), ShardMap::uniform(7, 11));
        let opts = QueryOptions::new(3, 2);
        let q = queries();
        for qi in 0..q.rows() {
            assert_eq!(
                ShardedEngine::serve_batch(&engine, &q, &opts)[qi],
                index.search(q.row(qi), 3, 2)
            );
        }
    }

    #[test]
    fn sharded_answers_match_monolith_for_every_shard_count() {
        let index = small_index();
        let q = queries();
        for shards in [1, 2, 3, 7] {
            let engine = ShardedEngine::with_shards(Arc::clone(&index), shards);
            for &(k, probes) in &[(1usize, 1usize), (3, 2), (5, 7)] {
                let opts = QueryOptions::new(k, probes);
                let got = ShardedEngine::serve_batch(&engine, &q, &opts);
                for qi in 0..q.rows() {
                    let expect = index.search(q.row(qi), k, probes);
                    assert_eq!(got[qi], expect, "shards={shards} k={k} probes={probes}");
                    assert_eq!(engine.query(q.row(qi), &opts), expect);
                }
            }
        }
    }

    #[test]
    fn rerank_budget_matches_unsharded_engine() {
        let index = small_index();
        let unsharded = QueryEngine::new(Arc::clone(&index));
        let q = queries();
        for shards in [1, 2, 4] {
            let sharded = ShardedEngine::with_shards(Arc::clone(&index), shards);
            for budget in [0, 1, 4, 9, 1000] {
                let opts = QueryOptions::new(4, 5).with_rerank_budget(budget);
                assert_eq!(
                    ShardedEngine::serve_batch(&sharded, &q, &opts),
                    QueryEngine::serve_batch(&unsharded, &q, &opts),
                    "shards={shards} budget={budget}"
                );
            }
        }
    }

    #[test]
    fn stats_record_like_the_monolith() {
        let index = small_index();
        let sharded = ShardedEngine::with_shards(Arc::clone(&index), 3);
        let unsharded = QueryEngine::new(index);
        let q = queries();
        let opts = QueryOptions::new(2, 3);
        ShardedEngine::serve_batch(&sharded, &q, &opts);
        QueryEngine::serve_batch(&unsharded, &q, &opts);
        let (s, u) = (sharded.stats(), unsharded.stats());
        assert_eq!(s.queries, u.queries);
        assert_eq!(s.batches, u.batches);
        assert_eq!(s.bin_probes, u.bin_probes);
        assert_eq!(s.mean_candidates, u.mean_candidates);
        sharded.reset_stats();
        assert_eq!(sharded.stats().queries, 0);
    }

    #[test]
    fn rebalance_from_stats_moves_load_and_keeps_answers() {
        let index = small_index();
        let mut engine = ShardedEngine::with_shards(Arc::clone(&index), 3);
        let q = queries();
        let opts = QueryOptions::new(3, 2);
        let before = ShardedEngine::serve_batch(&engine, &q, &opts);
        engine.rebalance_from_stats();
        // The rebuilt map is packed from the recorded probe skew...
        assert_eq!(
            engine.map(),
            &ShardMap::from_loads(&engine.stats().bin_probes, 3)
        );
        // ...and the answers are unchanged.
        assert_eq!(ShardedEngine::serve_batch(&engine, &q, &opts), before);
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
            let engine = ShardedEngine::with_shards(Arc::clone(&index), shards);
            for &(k, probes) in &[(1usize, 1usize), (3, 2), (5, 7)] {
                let opts = QueryOptions::new(k, probes);
                let got = ShardedEngine::serve_batch(&engine, &q, &opts);
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
        let unsharded = QueryEngine::new(Arc::clone(&index));
        let q = queries();
        for shards in [1, 2, 4] {
            let sharded = ShardedEngine::with_shards(Arc::clone(&index), shards);
            for budget in [0, 1, 4, 9, 1000] {
                let opts = QueryOptions::new(4, 5).with_rerank_budget(budget);
                assert_eq!(
                    ShardedEngine::serve_batch(&sharded, &q, &opts),
                    QueryEngine::serve_batch(&unsharded, &q, &opts),
                    "shards={shards} budget={budget}"
                );
            }
        }
    }

    #[test]
    fn compact_and_rebalance_folds_the_delta_and_matches_a_fresh_build() {
        let index = small_index();
        let mut engine = ShardedEngine::with_shards(Arc::clone(&index), 3);
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
        let got = ShardedEngine::serve_batch(&engine, &q, &opts);
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
        let engine = ShardedEngine::with_shards(Arc::clone(&index), 3);
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
        let engine = ShardedEngine::with_shards(Arc::clone(&index), 4);
        let nan_q = [f32::NAN, f32::NAN];
        let opts = QueryOptions::new(3, 2);
        let r1 = engine.query(&nan_q, &opts);
        assert_eq!(r1, engine.query(&nan_q, &opts));
        assert_eq!(r1, index.search(&nan_q, 3, 2));
    }

    #[test]
    fn shard_point_counts_cover_the_dataset() {
        let index = small_index();
        let engine = ShardedEngine::with_shards(Arc::clone(&index), 4);
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
            // the scatter/gather merge relies on regardless of load skew).
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
