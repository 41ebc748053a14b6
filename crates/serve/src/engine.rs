//! The batched query engine: per-request knobs, pool execution, statistics.

use std::sync::Arc;
use std::time::Instant;

use rayon::prelude::*;
use usp_index::stream::{Partial, Run};
use usp_index::{CompactionReport, MutationError, PartitionIndex, Partitioner, SearchResult};
use usp_linalg::Matrix;

use crate::shard::ShardMap;
use crate::stats::{ServeStats, StatsSnapshot};

/// Per-request serving knobs (every request can use different values against the same
/// engine).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct QueryOptions {
    /// Number of neighbours to return.
    pub k: usize,
    /// Number of bins to probe (`m′` of Algorithm 2), clamped to the bin count.
    pub probes: usize,
    /// Cap on the number of candidates scored **exactly** per query. In exact mode
    /// candidates are kept in bin-rank-then-bucket order, so the budget drops points
    /// from the *least* probable probed bins first; in compressed mode the same
    /// number of exact evaluations is spent on the ADC-best shortlist instead (the
    /// whole probed stream is still ADC-scored). `None` = the index's own default:
    /// exact Algorithm 2, or the configured compressed `rerank_budget` (identical to
    /// [`PartitionIndex::search`] either way).
    pub rerank_budget: Option<usize>,
}

impl QueryOptions {
    /// Options matching [`PartitionIndex::search`]'s semantics exactly.
    pub fn new(k: usize, probes: usize) -> Self {
        Self {
            k,
            probes,
            rerank_budget: None,
        }
    }

    /// Caps the per-query re-rank work (tail-latency control).
    pub fn with_rerank_budget(mut self, budget: usize) -> Self {
        self.rerank_budget = Some(budget);
        self
    }
}

/// Anything that answers a whole matrix of queries under shared per-request options —
/// the contract both micro-batch drivers program against (the network event loop of
/// [`crate::ingress`], which calls `serve_batch` on its own thread, and the in-process
/// [`crate::MicroBatcher`]); [`QueryEngine`] is the implementation, and tests put
/// panicking engines behind the same drivers.
///
/// Implementations must answer in request order and deterministically: `serve_batch`
/// results must not depend on pool size or batch composition. A panic in
/// `serve_batch` is caught by the drivers: the event loop fails the queries of that one
/// batch and keeps serving, the `MicroBatcher` resurfaces it to its callers.
pub trait BatchEngine: Send + Sync {
    /// Dimensionality served queries must have.
    fn dims(&self) -> usize;

    /// Answers every row of `queries`, in row order.
    fn serve_batch(&self, queries: &Matrix, opts: &QueryOptions) -> Vec<SearchResult>;

    /// Pre-spawns the persistent pool's worker threads (and anything else the engine
    /// wants hot) so the first real batch pays no thread-spawn cost. Idempotent; call
    /// before taking traffic.
    fn warm_up(&self) {
        // The most helpers any region can request is pool size - 1 (the submitter
        // works too); spawn them directly. A dummy warm region would under-provision
        // large pools — regions cap helpers at their block count —
        // `rayon::pool_worker_count()` observes the effect either way.
        rayon::prespawn_workers(rayon::current_num_threads().saturating_sub(1));
    }

    /// Inserts a point through the engine's streaming write path, returning its id.
    /// Every refusal is a typed [`MutationError`] — wrong dims, a failed WAL append
    /// (the mutation was not applied and must not be acked), or
    /// [`MutationError::Unsupported`] for engines without online writes (the
    /// default). The network ingress maps an `Err` to an error reply, never a
    /// silent ack or a panic.
    fn insert(&self, _point: &[f32]) -> Result<usize, MutationError> {
        Err(MutationError::Unsupported)
    }

    /// Tombstones a point. `Err(UnknownId)` / `Err(AlreadyDeleted)` are the routine
    /// refusals; `Err(Wal(_))` means the delete reached neither the log nor the
    /// index. Engines without online writes report [`MutationError::Unsupported`]
    /// (the default).
    fn delete(&self, _id: usize) -> Result<(), MutationError> {
        Err(MutationError::Unsupported)
    }

    /// Serving statistics accumulated so far (an all-zero snapshot by default, for
    /// engines that keep none).
    fn stats(&self) -> StatsSnapshot {
        StatsSnapshot::default()
    }
}

/// The batched query-serving engine over a [`PartitionIndex`], for any shard count.
///
/// The index stays behind an `Arc` and is the only holder of points; the
/// [`ShardMap`] says which shard scans which of its bins. [`new`](Self::new) is the
/// one-shard engine — the monolith — and a shard is placement, not a second
/// scheduler: the unit of pool work is the query for every shard count (see
/// [`serve_batch`](Self::serve_batch)). The engine is `Send + Sync`; clones of the
/// `Arc`-held index are cheap and a [`crate::MicroBatcher`] can feed it single
/// queries.
pub struct QueryEngine<P: Partitioner> {
    index: Arc<PartitionIndex<P>>,
    map: ShardMap,
    stats: ServeStats,
}

impl<P: Partitioner> QueryEngine<P> {
    /// Wraps an index for serving, all bins on one shard.
    pub fn new(index: Arc<PartitionIndex<P>>) -> Self {
        Self::with_shards(index, 1)
    }

    /// Shards `index` uniformly over `num_shards` shards (no stats needed).
    pub fn with_shards(index: Arc<PartitionIndex<P>>, num_shards: usize) -> Self {
        let map = ShardMap::uniform(index.num_bins(), num_shards);
        Self::with_map(index, map)
    }

    /// Shards `index` according to `map`.
    pub fn with_map(index: Arc<PartitionIndex<P>>, map: ShardMap) -> Self {
        assert_eq!(
            map.num_bins(),
            index.num_bins(),
            "QueryEngine: map covers {} bins but the index has {}",
            map.num_bins(),
            index.num_bins()
        );
        let stats = ServeStats::new(index.num_bins());
        Self { index, map, stats }
    }

    /// The bin→shard map in force.
    pub fn map(&self) -> &ShardMap {
        &self.map
    }

    /// The underlying index.
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

    /// Inserts a point through the index's streaming write path (see
    /// [`PartitionIndex::try_insert`]) and returns its id. The point lands in its
    /// bin's membin, so it is served by whichever shard owns that bin, and
    /// subsequent queries on this engine see it immediately. With a WAL attached,
    /// `Ok` means the record is on the log (append-before-ack, per its sync policy)
    /// — stats count only applied mutations.
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

    /// Whether the index's outstanding delta crossed its compaction threshold (see
    /// [`PartitionIndex::needs_compaction`]).
    pub fn needs_compaction(&self) -> bool {
        self.index.needs_compaction()
    }

    /// The maintenance tick of a mutable deployment: if the delta crossed the
    /// compaction threshold, folds it into a fresh index
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

    /// Answers one query immediately (a batch of one). Latency-sensitive single
    /// lookups that can tolerate a small delay should go through a
    /// [`crate::MicroBatcher`] instead, which fills larger batches.
    pub fn query(&self, query: &[f32], opts: &QueryOptions) -> SearchResult {
        let queries = Matrix::from_vec(1, query.len(), query.to_vec());
        self.serve_batch(&queries, opts)
            .pop()
            .expect("one query in, one answer out")
    }

    /// Answers every row of `queries` in parallel on the persistent pool.
    ///
    /// The batch shares one read guard on the delta (so writes racing the batch
    /// serialize before or after it; a clean index takes no lock), one
    /// [`Partitioner::rank_bins_batch`] forward (a single GEMM for neural
    /// partitioners) and, on a compressed index, one batched ADC-table build (tables
    /// are pure functions of the query). Then **one** parallel region runs over the
    /// queries, no thread spawned on the hot path: the worker that picks a query up
    /// produces its candidate stream ([`usp_index::stream`]), groups the runs by
    /// owning shard, makes one pass per touched shard and finishes them. With one
    /// shard that is [`PartitionIndex::scan_bins_with_table`] verbatim.
    ///
    /// Results come back in request order and are bit-identical to per-row
    /// [`PartitionIndex::search`] (to [`PartitionIndex::scan_bins`] when a re-rank
    /// budget is set) for any shard count and pool size: the batched forward is
    /// bit-identical per row to the per-query one (the `Partitioner` batch contract),
    /// every run keeps its stream position through the grouping, and `finish` merges
    /// passes by that position. A query's recorded latency is its even share of the
    /// batch-shared work plus its own time on its worker.
    pub fn serve_batch(&self, queries: &Matrix, opts: &QueryOptions) -> Vec<SearchResult> {
        let t0 = Instant::now();
        let delta = self.index.is_mutated().then(|| self.index.delta());
        let ranked = self
            .index
            .partitioner()
            .rank_bins_batch(queries, opts.probes);
        let tables = self.index.adc_tables_batch(queries);
        let shared_us = (t0.elapsed().as_micros() as u64) / (queries.rows().max(1) as u64);
        let shard_of = |run: &Run| self.map.shard_of(run.bin);
        let answered: Vec<(SearchResult, u64)> = (0..queries.rows())
            .into_par_iter()
            .map(|qi| {
                let t = Instant::now();
                let table = tables.as_ref().map(|t| &t[qi]);
                let consumer =
                    self.index
                        .consumer(queries.row(qi), opts.k, opts.rerank_budget, table);
                let mut runs =
                    self.index
                        .candidate_runs(&ranked[qi], delta.as_deref(), consumer.cap());
                // Stable, so each shard's runs stay in stream order.
                runs.sort_by_key(shard_of);
                // At most one pass per shard; sized here because `chunk_by` cannot say.
                let mut passes: Vec<Partial> = Vec::with_capacity(self.map.num_shards());
                let shares = runs.chunk_by(|a, b| shard_of(a) == shard_of(b));
                passes.extend(shares.map(|shard_runs| consumer.pass(shard_runs)));
                let result = consumer.finish(&passes);
                (result, shared_us + t.elapsed().as_micros() as u64)
            })
            .collect();
        let busy = t0.elapsed().as_micros() as u64;

        let latencies: Vec<u64> = answered.iter().map(|(_, us)| *us).collect();
        let scanned = answered.iter().map(|(r, _)| r.candidates_scanned as u64);
        let compressed = answered.iter().map(|(r, _)| r.compressed_scanned as u64);
        self.stats.record_batch(
            &latencies,
            ranked.iter().flat_map(|bins| bins.iter().copied()),
            scanned.sum(),
            compressed.sum(),
            busy,
        );
        answered.into_iter().map(|(r, _)| r).collect()
    }

    /// Serving statistics accumulated since construction (or the last
    /// [`reset_stats`](Self::reset_stats)), with the index's WAL counters overlaid
    /// when a log is attached (the log is the source of truth for durability
    /// numbers — they survive engine-level `reset_stats`).
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

    /// Pre-spawns the pool workers (see [`BatchEngine::warm_up`]); inherent so callers
    /// holding a concrete engine need not import the trait.
    pub fn warm_up(&self) {
        BatchEngine::warm_up(self)
    }
}

impl<P: Partitioner> BatchEngine for QueryEngine<P> {
    fn dims(&self) -> usize {
        self.index.dims()
    }

    fn serve_batch(&self, queries: &Matrix, opts: &QueryOptions) -> Vec<SearchResult> {
        QueryEngine::serve_batch(self, queries, opts)
    }

    fn insert(&self, point: &[f32]) -> Result<usize, MutationError> {
        QueryEngine::insert(self, point)
    }

    fn delete(&self, id: usize) -> Result<(), MutationError> {
        QueryEngine::delete(self, id)
    }

    fn stats(&self) -> StatsSnapshot {
        QueryEngine::stats(self)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use usp_index::partitioner::RoundRobinPartitioner;
    use usp_linalg::Distance;

    fn small_index() -> Arc<PartitionIndex<RoundRobinPartitioner>> {
        // 40 deterministic 2-D points hashed into 5 bins.
        let n = 40;
        let data: Vec<f32> = (0..n * 2)
            .map(|i| ((i * 37 % 101) as f32) / 10.0 - 5.0)
            .collect();
        let data = Matrix::from_vec(n, 2, data);
        Arc::new(PartitionIndex::build(
            RoundRobinPartitioner::new(5),
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
    fn batch_results_match_index_search_exactly() {
        let index = small_index();
        let engine = QueryEngine::new(Arc::clone(&index));
        let q = queries();
        let opts = QueryOptions::new(3, 2);
        let batch = engine.serve_batch(&q, &opts);
        for qi in 0..q.rows() {
            let expect = index.search(q.row(qi), 3, 2);
            assert_eq!(batch[qi], expect, "engine differs from Searcher at {qi}");
            assert_eq!(engine.query(q.row(qi), &opts), expect);
        }
    }

    #[test]
    fn rerank_budget_caps_scanned_candidates() {
        let index = small_index();
        let engine = QueryEngine::new(index);
        let q = queries();
        let unbounded = engine.serve_batch(&q, &QueryOptions::new(3, 5));
        let budget = 4;
        let bounded = engine.serve_batch(&q, &QueryOptions::new(3, 5).with_rerank_budget(budget));
        for (u, b) in unbounded.iter().zip(&bounded) {
            assert!(u.candidates_scanned > budget, "test needs busier bins");
            assert_eq!(b.candidates_scanned, budget);
            assert!(b.ids.len() <= 3);
        }
    }

    #[test]
    fn per_request_knobs_are_independent() {
        let index = small_index();
        let engine = QueryEngine::new(Arc::clone(&index));
        let q = queries();
        // Interleaved requests with different knobs must each match their own
        // per-query reference.
        let a = engine.serve_batch(&q, &QueryOptions::new(1, 1));
        let b = engine.serve_batch(&q, &QueryOptions::new(5, 4));
        for qi in 0..q.rows() {
            assert_eq!(a[qi], index.search(q.row(qi), 1, 1));
            assert_eq!(b[qi], index.search(q.row(qi), 5, 4));
        }
    }

    #[test]
    fn stats_track_queries_batches_and_bin_probes() {
        let index = small_index();
        let engine = QueryEngine::new(index);
        let q = queries();
        engine.serve_batch(&q, &QueryOptions::new(2, 3));
        engine.query(q.row(0), &QueryOptions::new(2, 3));
        let snap = engine.stats();
        assert_eq!(snap.queries, 7);
        assert_eq!(snap.batches, 2);
        // Every query probed exactly 3 bins.
        assert_eq!(snap.bin_probes.iter().sum::<u64>(), 7 * 3);
        assert_eq!(snap.bin_probes.len(), 5);
        assert!(snap.mean_candidates > 0.0);
        engine.reset_stats();
        assert_eq!(engine.stats().queries, 0);
    }

    #[test]
    fn mutations_flow_through_serving_and_the_stats() {
        let index = small_index();
        let engine = QueryEngine::new(Arc::clone(&index));
        let q = queries();
        let opts = QueryOptions::new(3, 2);
        // A point inserted through the engine is findable via the batched path...
        let id = engine.insert(&[9.0, 9.0]).expect("dims match");
        assert_eq!(id, 40);
        let probe = Matrix::from_vec(1, 2, vec![9.1, 8.9]);
        let got = engine.serve_batch(&probe, &QueryOptions::new(1, 5));
        assert_eq!(got[0].ids, vec![id]);
        // ...and the batch stays equal to the per-query delta-aware reference.
        let batch = engine.serve_batch(&q, &opts);
        for qi in 0..q.rows() {
            assert_eq!(batch[qi], index.search(q.row(qi), 3, 2));
        }
        // Deletes hide points; double-deletes and unknown ids are typed refusals
        // and count nothing.
        assert_eq!(engine.delete(7), Ok(()));
        assert_eq!(
            engine.delete(7),
            Err(MutationError::AlreadyDeleted { id: 7 })
        );
        assert_eq!(
            engine.delete(999),
            Err(MutationError::UnknownId { id: 999 })
        );
        assert_eq!(
            engine.insert(&[1.0]),
            Err(MutationError::DimsMismatch { got: 1, want: 2 })
        );
        let after = engine.serve_batch(&q, &opts);
        for (qi, r) in after.iter().enumerate() {
            assert!(!r.ids.contains(&7), "tombstoned id returned at {qi}");
            assert_eq!(r, &index.search(q.row(qi), 3, 2));
        }
        let snap = engine.stats();
        assert_eq!((snap.inserts, snap.deletes), (1, 1));
    }

    #[test]
    fn nan_queries_are_answered_deterministically() {
        let index = small_index();
        let engine = QueryEngine::new(Arc::clone(&index));
        let nan_q = [f32::NAN, f32::NAN];
        let opts = QueryOptions::new(3, 2);
        let r1 = engine.query(&nan_q, &opts);
        let r2 = engine.query(&nan_q, &opts);
        // No panic, stable output, and still consistent with the Searcher path.
        assert_eq!(r1, r2);
        assert_eq!(r1, index.search(&nan_q, 3, 2));
    }
}
