//! The bin → points lookup table and the shared online phase (Algorithm 2).
//!
//! After the offline phase produces a partitioner, [`PartitionIndex::build`] runs
//! inference over the whole dataset, records which points fall into which bin (the lookup
//! table of Algorithm 1 step 3), and serves queries by probing the `m′` most probable bins
//! and exactly re-ranking the union of their contents.
//!
//! # Bin-contiguous (CSR) storage
//!
//! The index holds **one** copy of the dataset, `flat`, with its rows permuted into
//! bin order: `ids[bin_offsets[b]..bin_offsets[b + 1]]` are bin `b`'s point ids
//! (ascending, the bucket order) and row `local` of `flat` is point `ids[local]`.
//! Probing a bin therefore streams one contiguous slice through the blocked distance
//! kernels ([`usp_linalg::kernel`]) — a cache-resident scan, the layout every
//! production partition-based system (IVF, ScaNN) scans in. A point is found back by
//! id through a binary search of the rows in ascending-id order
//! ([`PartitionIndex::point`]); nothing is indexed by id. An id is issued once and
//! never moves: [`PartitionIndex::compacted`] keeps every live point's id.
//!
//! [`PartitionIndex::with_scoring`] optionally adds a bin-contiguous code array of
//! `n * code_len` bytes in the **same** order, encoded by a trained [`CodeQuantizer`].
//!
//! # One candidate stream
//!
//! Every query path — [`PartitionIndex::search`] and the serving engine — walks the
//! probed bins through [`crate::stream`] in one pass: one producer
//! of contiguous runs over `flat` / the codes / the membins, and an exact or a
//! two-phase (ADC shortlist, exact re-rank) consumer picked by the configured
//! [`Scoring`]. This file owns the storage and the write path; it scores nothing.

use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Mutex, MutexGuard, RwLock, RwLockReadGuard};

use rayon::prelude::*;
use usp_linalg::kernel::AdcTable;
use usp_linalg::{Distance, Matrix};

use crate::balance::BalanceStats;
use crate::mutation::{CompactionReport, MutationError, MutationState, MutationStats};
use crate::partitioner::Partitioner;
use crate::scoring::{CodeQuantizer, Scoring};
use crate::searcher::SearchResult;
use crate::wal::{Wal, WalError, WalRecord, WalStats};

/// [`PartitionIndex::needs_compaction`] fires once the delta (inserts + base
/// tombstones) reaches this fraction of the base row count.
const COMPACTION_THRESHOLD: f64 = 0.1;

/// The resolved scoring state: [`Scoring`] plus the code array built from it.
enum ScoringMode {
    Exact,
    Compressed {
        quantizer: Arc<dyn CodeQuantizer>,
        /// Bin-contiguous code array, stride `quantizer.code_len()`: code `local` is
        /// the encoding of `flat` row `local`.
        codes: Vec<u8>,
        /// Default shortlist size when a request sets no budget.
        rerank_budget: usize,
    },
}

/// A searchable index: a partitioner plus the lookup table over a concrete dataset.
pub struct PartitionIndex<P: Partitioner> {
    partitioner: P,
    distance: Distance,
    /// Bucket concatenation: `ids[bin_offsets[b]..bin_offsets[b + 1]]` = bin `b`'s
    /// point ids, ascending. A permutation of `0..n` until the first compaction, the
    /// live ids after it.
    ids: Vec<u32>,
    /// The CSR rows in ascending-id order (`ids[rows_by_id[j]]` ascends in `j`): the
    /// id → row lookup, one binary search, sized by the rows and not by the ids.
    rows_by_id: Vec<u32>,
    /// CSR row offsets per bin, length `num_bins + 1`, monotone, ending at `n`.
    bin_offsets: Vec<usize>,
    /// The dataset in bin-contiguous order: row `local` is point `ids[local]`. The
    /// buffer every candidate scan streams, and the only copy the index keeps.
    flat: Matrix,
    /// Exact or compressed candidate scoring (exact unless configured).
    scoring: ScoringMode,
    /// Outstanding inserts and tombstones (see [`crate::mutation`]). Queries read it
    /// through [`Self::delta`]; `insert`/`delete` take the write lock per operation.
    mutation: RwLock<MutationState>,
    /// Fast dirty flag, set by the first insert or delete: a clean index's query path
    /// never touches the lock (its candidate stream is produced with no delta).
    mutated: AtomicBool,
    /// Optional write-ahead log for the delta ([`crate::wal`]). `Mutex<Option<..>>`
    /// rather than a plain field so compaction can move the log onto the rebuilt
    /// index through `&self` (engines hold the index behind an `Arc`). Lock order:
    /// the `mutation` write lock is taken first, then this — append order in the
    /// log therefore equals apply order in the state.
    wal: Mutex<Option<Wal>>,
}

/// What [`PartitionIndex::recover`] replayed from the log.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct RecoveryReport {
    /// Insert records replayed into the delta.
    pub replayed_inserts: u64,
    /// Delete records replayed into the delta.
    pub replayed_deletes: u64,
    /// Bytes dropped as the (at most one) torn tail record.
    pub torn_tail_bytes: u64,
    /// Compaction epoch the log opened with (0 for a never-compacted log).
    pub epoch: u64,
}

impl<P: Partitioner> PartitionIndex<P> {
    /// Builds the lookup table by assigning every data point to its most probable bin
    /// ([`Partitioner::assign_batch`]).
    pub fn build(partitioner: P, data: &Matrix, distance: Distance) -> Self {
        let assignments = partitioner.assign_batch(data);
        Self::from_assignments(partitioner, data, assignments, distance)
    }

    /// Builds the index from precomputed assignments (used when the offline phase already
    /// produced per-point bins, e.g. from graph partitioning labels): lays them out as
    /// CSR and permutes the dataset into bin-contiguous order (the row copies run
    /// parallel on the pool).
    pub fn from_assignments(
        partitioner: P,
        data: &Matrix,
        assignments: Vec<usize>,
        distance: Distance,
    ) -> Self {
        assert_eq!(assignments.len(), data.rows());
        let m = partitioner.num_bins();
        let n = data.rows();
        let dim = data.cols();

        let mut bin_offsets = vec![0usize; m + 1];
        for &b in &assignments {
            assert!(
                b < m,
                "partitioner assigned bin {b} but reports only {m} bins"
            );
            bin_offsets[b + 1] += 1;
        }
        for b in 0..m {
            bin_offsets[b + 1] += bin_offsets[b];
        }

        // Stable fill: points in id order land in their bin's slot in id order, so
        // each bucket slice stays ascending (the pre-CSR Vec<Vec> behaviour).
        let mut cursor = bin_offsets[..m].to_vec();
        let mut ids = vec![0u32; n];
        for (i, &b) in assignments.iter().enumerate() {
            ids[cursor[b]] = i as u32;
            cursor[b] += 1;
        }

        let mut flat = Matrix::zeros(n, dim);
        flat.as_mut_slice()
            .par_chunks_mut(dim.max(1))
            .enumerate()
            .for_each(|(local, row)| {
                if dim > 0 {
                    row.copy_from_slice(data.row(ids[local] as usize));
                }
            });

        Self::from_csr(
            partitioner,
            distance,
            bin_offsets,
            ids,
            flat,
            ScoringMode::Exact,
            n,
        )
    }

    /// The constructor build and compaction share, over finished CSR arrays: a clean
    /// index whose inserts take ids from `next_id` on.
    fn from_csr(
        partitioner: P,
        distance: Distance,
        bin_offsets: Vec<usize>,
        ids: Vec<u32>,
        flat: Matrix,
        scoring: ScoringMode,
        next_id: usize,
    ) -> Self {
        let mut rows_by_id: Vec<u32> = (0..ids.len() as u32).collect();
        rows_by_id.sort_unstable_by_key(|&row| ids[row as usize]);
        let mutation = MutationState::new(flat.cols(), ids.len(), bin_offsets.len() - 1, next_id);
        Self {
            partitioner,
            distance,
            ids,
            rows_by_id,
            bin_offsets,
            flat,
            scoring,
            mutation: RwLock::new(mutation),
            mutated: AtomicBool::new(false),
            wal: Mutex::new(None),
        }
    }

    /// Sets the candidate-scoring mode, building the bin-contiguous code array when
    /// compressed scoring is requested (parallel over points on the pool: codes are
    /// encoded straight from the already-permuted `flat` rows, so the code array is
    /// permuted by the same CSR `ids` order by construction).
    ///
    /// With [`Scoring::Exact`] this is the identity — the index answers bit-identically
    /// to one never configured. Compressed scoring needs `dim > 0` (degenerate
    /// zero-dimensional datasets stay on the exact path).
    pub fn with_scoring(mut self, scoring: Scoring) -> Self {
        assert!(
            !self.is_mutated(),
            "with_scoring: configure scoring before mutating the index"
        );
        match scoring {
            Scoring::Exact => self.scoring = ScoringMode::Exact,
            Scoring::Compressed {
                quantizer,
                rerank_budget,
            } => {
                assert!(
                    self.flat.cols() > 0,
                    "with_scoring: compressed scoring needs dim > 0"
                );
                assert_eq!(
                    quantizer.dim(),
                    self.flat.cols(),
                    "with_scoring: quantizer dim {} != index dim {}",
                    quantizer.dim(),
                    self.flat.cols()
                );
                assert!(
                    rerank_budget > 0,
                    "with_scoring: rerank_budget must be positive"
                );
                let m = quantizer.code_len();
                assert!(m > 0, "with_scoring: quantizer has zero code length");
                let mut codes = vec![0u8; self.flat.rows() * m];
                let flat = &self.flat;
                let q = quantizer.as_ref();
                codes
                    .par_chunks_mut(m)
                    .enumerate()
                    .for_each(|(local, out)| q.encode_into(flat.row(local), out));
                self.scoring = ScoringMode::Compressed {
                    quantizer,
                    codes,
                    rerank_budget,
                };
            }
        }
        self
    }

    /// The underlying partitioner.
    pub fn partitioner(&self) -> &P {
        &self.partitioner
    }

    /// Dimensionality of the indexed points.
    pub fn dims(&self) -> usize {
        self.flat.cols()
    }

    /// The CSR row holding point `id`, if one does.
    fn row_of(&self, id: usize) -> Option<usize> {
        let id = u32::try_from(id).ok()?;
        let at = self
            .rows_by_id
            .binary_search_by_key(&id, |&row| self.ids[row as usize]);
        at.ok().map(|at| self.rows_by_id[at] as usize)
    }

    /// The bin whose bucket holds CSR row `row`.
    fn bin_of_row(&self, row: usize) -> usize {
        self.bin_offsets.partition_point(|&start| start <= row) - 1
    }

    /// The bin whose CSR rows hold point `id`, tombstoned or not. `None` when no CSR
    /// row does: an insert still in its membin (it gets a row at the next
    /// compaction), an id an earlier compaction dropped, or one never issued.
    pub fn bin_of(&self, id: usize) -> Option<usize> {
        self.row_of(id).map(|row| self.bin_of_row(row))
    }

    /// The CSR row of point `id`; panics when none holds it (see [`Self::bin_of`]).
    pub fn point(&self, id: usize) -> &[f32] {
        let row = self.row_of(id);
        self.flat
            .row(row.unwrap_or_else(|| panic!("point: no CSR row holds id {id}")))
    }

    /// Number of bins.
    pub fn num_bins(&self) -> usize {
        self.bin_offsets.len() - 1
    }

    /// Point ids stored in a bin (ascending).
    pub fn bucket(&self, bin: usize) -> &[u32] {
        &self.ids[self.bin_offsets[bin]..self.bin_offsets[bin + 1]]
    }

    /// The contiguous rows of a bin: row `j` of the slice is point `bucket(bin)[j]`.
    pub fn bin_rows(&self, bin: usize) -> &[f32] {
        let dim = self.flat.cols();
        &self.flat.as_slice()[self.bin_offsets[bin] * dim..self.bin_offsets[bin + 1] * dim]
    }

    /// CSR row offsets per bin (`num_bins + 1` entries, monotone, last = points).
    pub fn bin_offsets(&self) -> &[usize] {
        &self.bin_offsets
    }

    /// The local→global id table of the bin-contiguous layout: the concatenation of
    /// every bucket in bin order (a permutation of `0..n` until the first compaction).
    pub fn local_to_global(&self) -> &[u32] {
        &self.ids
    }

    /// Sizes of every bucket.
    pub fn bucket_sizes(&self) -> Vec<usize> {
        self.bin_offsets.windows(2).map(|w| w[1] - w[0]).collect()
    }

    /// Balance statistics of the built partition.
    pub fn balance(&self) -> BalanceStats {
        BalanceStats::from_sizes(&self.bucket_sizes())
    }

    /// The probe step of Algorithm 2: the ranked `probes` most probable bins together
    /// with the ids of their candidate stream (see [`crate::stream`]; tombstoned ids
    /// never appear). [`Self::scan_bins`] scores exactly this stream without
    /// materialising it; `probe` is the id-level view for callers that want the
    /// candidates themselves (diagnostics, external re-rankers).
    pub fn probe(&self, query: &[f32], probes: usize) -> (Vec<usize>, Vec<u32>) {
        let bins = self.partitioner.rank_bins(query, probes);
        let delta = self.is_mutated().then(|| self.delta());
        let runs = self.candidate_runs(&bins, delta.as_deref(), None);
        let ids = runs.iter().flat_map(|r| r.ids).copied().collect();
        (bins, ids)
    }

    /// The distance metric candidates are re-ranked under.
    pub fn distance(&self) -> Distance {
        self.distance
    }

    /// Scores the candidate stream of the listed bins ([`crate::stream`]) under the
    /// configured [`Scoring`] mode.
    ///
    /// **Exact mode** (the default): the stream is truncated to `budget` candidates if
    /// one is set and the top `k` selected under the blocked kernels' (distance,
    /// stream position) total order — ascending distance, NaN last, ties broken by
    /// position in the stream.
    ///
    /// **Compressed mode**: ADC-score *every* probed code through one per-query lookup
    /// table, keep the best `budget` (default: the configured `rerank_budget`, floored
    /// at `k`) as a shortlist, then re-rank the shortlist's rows with the exact
    /// kernels; membin rows carry no codes and are always scored exactly. `budget` is
    /// the same knob on both modes — the number of exact distance evaluations — but
    /// compressed mode spends it on the *best-looking* candidates instead of a
    /// stream-order prefix. `candidates_scanned` counts exact evaluations;
    /// `compressed_scanned` counts the first-pass codes.
    ///
    /// [`Self::search`] calls this with the ranked bins, and the serving engine runs
    /// the same consumer over the same stream, so they answer bit-identically by
    /// construction.
    pub fn scan_bins(
        &self,
        query: &[f32],
        bins: &[usize],
        k: usize,
        budget: Option<usize>,
    ) -> SearchResult {
        self.scan_bins_with_table(query, bins, k, budget, None)
    }

    /// [`Self::scan_bins`] with an optional caller-built ADC table so batched serving
    /// can amortise table construction per micro-batch (see
    /// [`Self::adc_tables_batch`]). The table must come from this index's quantizer
    /// and `query`; `None` builds one on the spot. Ignored in exact mode.
    pub fn scan_bins_with_table(
        &self,
        query: &[f32],
        bins: &[usize],
        k: usize,
        budget: Option<usize>,
        table: Option<&AdcTable>,
    ) -> SearchResult {
        let delta = self.is_mutated().then(|| self.delta());
        let consumer = self.consumer(query, k, budget, table);
        let runs = self.candidate_runs(bins, delta.as_deref(), consumer.cap());
        consumer.scan(&runs)
    }

    /// The quantizer behind [`Scoring::Compressed`], if one is configured.
    pub fn quantizer(&self) -> Option<&Arc<dyn CodeQuantizer>> {
        match &self.scoring {
            ScoringMode::Exact => None,
            ScoringMode::Compressed { quantizer, .. } => Some(quantizer),
        }
    }

    /// The configured default shortlist size of compressed scoring, if compressed.
    pub fn compressed_rerank_budget(&self) -> Option<usize> {
        match &self.scoring {
            ScoringMode::Exact => None,
            ScoringMode::Compressed { rerank_budget, .. } => Some(*rerank_budget),
        }
    }

    /// The contiguous code slice of a bin (stride [`CodeQuantizer::code_len`]): code
    /// `j` of the slice encodes `bin_rows(bin)` row `j`. `None` in exact mode.
    pub fn bin_codes(&self, bin: usize) -> Option<&[u8]> {
        match &self.scoring {
            ScoringMode::Exact => None,
            ScoringMode::Compressed {
                quantizer, codes, ..
            } => {
                let m = quantizer.code_len();
                Some(&codes[self.bin_offsets[bin] * m..self.bin_offsets[bin + 1] * m])
            }
        }
    }

    /// One ADC table per query row, built on the calling thread — the batched-table
    /// API `serve_batch` amortises table construction through. `None` in exact mode.
    ///
    /// Not a pool region: a table is about a microsecond (8 × 256 entries on the AVX2
    /// column kernel), so a batch's tables take less time than handing them to a pool
    /// worker and joining it. As a second region per batch they raised
    /// `closed_pq_sharded`'s `query_p99_ms` from 1.27 to 1.55 ms on 2 vCPUs.
    pub fn adc_tables_batch(&self, queries: &Matrix) -> Option<Vec<AdcTable>> {
        match &self.scoring {
            ScoringMode::Exact => None,
            ScoringMode::Compressed { quantizer, .. } => Some(
                (0..queries.rows())
                    .map(|qi| quantizer.adc_table(self.distance, queries.row(qi)))
                    .collect(),
            ),
        }
    }

    /// True when inserts or deletes are outstanding. A clean index — never mutated,
    /// or freshly compacted — produces its candidate stream without reading the
    /// mutation state at all.
    pub fn is_mutated(&self) -> bool {
        // ordering: Acquire pairs with the Release stores in insert()/delete() —
        // a reader that observes `true` also observes the delta state those
        // writers published under the mutation lock before storing the flag.
        self.mutated.load(Ordering::Acquire)
    }

    /// A read view of the outstanding delta, held for the duration of one scan or
    /// one served batch, so writes racing it serialize before or after it, never
    /// mid-stream.
    pub fn delta(&self) -> RwLockReadGuard<'_, MutationState> {
        self.mutation.read().expect("mutation lock poisoned")
    }

    /// Locks the WAL slot (loud on poison: a panic mid-append leaves counters in
    /// an unknown state, which must not be silently reused).
    fn wal_slot(&self) -> MutexGuard<'_, Option<Wal>> {
        self.wal.lock().expect("wal lock poisoned")
    }

    /// Inserts a point: routes it through the trained partitioner into its bin's
    /// membin and returns its global id, the next one never issued — ids are not
    /// reused, so [`MutationError::IdSpaceExhausted`] once all `u32`s are. The point
    /// is visible to every subsequent scan; it gets no code until [`Self::compacted`]
    /// folds it into the CSR arrays (membins are exact-scanned).
    ///
    /// With a WAL attached ([`Self::with_wal`] / [`Self::recover`]), the record is
    /// appended — and synced, per the log's [`crate::wal::SyncPolicy`] — *before*
    /// the in-memory state mutates: an `Err` means the index is untouched and the
    /// caller must not ack.
    pub fn try_insert(&self, point: &[f32]) -> Result<usize, MutationError> {
        let dim = self.dims();
        if point.len() != dim {
            return Err(MutationError::DimsMismatch {
                got: point.len(),
                want: dim,
            });
        }
        let bin = self.partitioner.assign(point);
        assert!(
            bin < self.num_bins(),
            "partitioner assigned bin {bin} but reports only {} bins",
            self.num_bins()
        );
        let mut state = self.mutation.write().expect("mutation lock poisoned");
        let id = state.next_id();
        let id32 = u32::try_from(id).map_err(|_| MutationError::IdSpaceExhausted)?;
        if let Some(w) = self.wal_slot().as_mut() {
            w.append(&WalRecord::Insert {
                row: point.to_vec(),
            })?;
        }
        state.push_insert(bin, id32, point);
        drop(state);
        // ordering: Release publishes the delta written above (under the lock,
        // now dropped) to any reader whose is_mutated() Acquire-load sees `true`.
        self.mutated.store(true, Ordering::Release);
        Ok(id)
    }

    /// Panicking convenience form of [`Self::try_insert`] for offline call sites
    /// that treat a refused insert as programmer error; serving paths use the
    /// `try_` form and surface the typed error.
    pub fn insert(&self, point: &[f32]) -> usize {
        match self.try_insert(point) {
            Ok(id) => id,
            Err(e) => panic!("insert: {e}"),
        }
    }

    /// Tombstones a point by id (an id a compaction dropped is `AlreadyDeleted`), with
    /// the same append-before-apply WAL contract as [`Self::try_insert`]: the id is
    /// validated first, so a refused delete reaches neither the log nor the state.
    pub fn try_delete(&self, id: usize) -> Result<(), MutationError> {
        let mut state = self.mutation.write().expect("mutation lock poisoned");
        // Resolve the point and check liveness *before* logging: a dead or unknown
        // id must never produce a record (replaying one is corruption).
        let row = self.row_of(id);
        let live = match (row, state.insert_loc(id)) {
            (Some(pos), _) => !state.csr_deleted()[pos],
            (None, Some((bin, j))) => !state.membin(bin as usize).deleted()[j as usize],
            // Issued, and dropped by an earlier compaction.
            (None, None) if id < state.next_id() => false,
            (None, None) => return Err(MutationError::UnknownId { id }),
        };
        if !live {
            return Err(MutationError::AlreadyDeleted { id });
        }
        if let Some(w) = self.wal_slot().as_mut() {
            w.append(&WalRecord::Delete { id: id as u64 })?;
        }
        let fresh = match row {
            Some(pos) => state.tombstone_csr(self.bin_of_row(pos), pos),
            None => state.tombstone_insert(id),
        };
        debug_assert!(fresh, "liveness was checked under this same write lock");
        drop(state);
        // ordering: Release pairs with the Acquire load in is_mutated(),
        // publishing the tombstone recorded above.
        self.mutated.store(true, Ordering::Release);
        Ok(())
    }

    /// Boolean convenience form of [`Self::try_delete`]: false for an unknown or
    /// already-tombstoned id. A WAL failure still panics — an un-appendable
    /// mutation must never look like a routine "id not found".
    pub fn delete(&self, id: usize) -> bool {
        match self.try_delete(id) {
            Ok(()) => true,
            Err(MutationError::UnknownId { .. } | MutationError::AlreadyDeleted { .. }) => false,
            Err(e) => panic!("delete: {e}"),
        }
    }

    /// True once the outstanding delta — inserts plus base tombstones — reaches a
    /// tenth of the base row count. `QueryEngine::compact` polls it before folding
    /// the delta.
    pub fn needs_compaction(&self) -> bool {
        self.is_mutated() && self.mutation_stats().delta_fraction >= COMPACTION_THRESHOLD
    }

    /// A snapshot of the outstanding delta.
    pub fn mutation_stats(&self) -> MutationStats {
        let state = self.delta();
        MutationStats {
            base_points: self.ids.len(),
            inserts: state.total_inserts(),
            live_inserts: state.live_inserts(),
            tombstones: state.csr_dead() + state.dead_inserts(),
            delta_fraction: (state.total_inserts() + state.csr_dead()) as f64
                / self.ids.len().max(1) as f64,
        }
    }

    /// Builds the compacted index: each bin's live candidate stream
    /// ([`Self::candidate_runs`]) written down as its new CSR bin. Base rows keep their
    /// codes and only the inserts are encoded; every live point keeps its id. The
    /// result is clean and, in exact mode, answers **bit-identically** to this index;
    /// in compressed mode it answers like a fresh build over the live points, ids
    /// mapped through the ascending live ids (`tests/mutation_equivalence.rs`).
    pub fn compacted(&self) -> (Self, CompactionReport)
    where
        P: Clone,
    {
        let state = self.delta();
        let dim = self.dims();
        let live = self.ids.len() - state.csr_dead() + state.live_inserts();
        let quantizer = self.quantizer();
        let code_len = quantizer.map_or(0, |q| q.code_len());
        let mut flat = Vec::with_capacity(live * dim);
        let mut ids = Vec::with_capacity(live);
        let mut codes = Vec::with_capacity(live * code_len);
        let mut bin_offsets = Vec::with_capacity(self.num_bins() + 1);
        bin_offsets.push(0);
        for b in 0..self.num_bins() {
            for run in self.candidate_runs(&[b], Some(&state), None) {
                flat.extend_from_slice(run.rows);
                ids.extend_from_slice(run.ids);
                match (run.codes, quantizer) {
                    (Some(run_codes), _) => codes.extend_from_slice(run_codes),
                    (None, Some(q)) => {
                        for row in run.rows.chunks_exact(dim) {
                            let at = codes.len();
                            codes.resize(at + code_len, 0);
                            q.encode_into(row, &mut codes[at..]);
                        }
                    }
                    (None, None) => {}
                }
            }
            bin_offsets.push(ids.len());
        }
        let report = CompactionReport {
            live_points: live,
            merged_inserts: state.live_inserts(),
            dropped_tombstones: state.csr_dead() + state.dead_inserts(),
        };
        let next_id = state.next_id();
        drop(state);
        let scoring = match &self.scoring {
            ScoringMode::Exact => ScoringMode::Exact,
            ScoringMode::Compressed {
                quantizer,
                rerank_budget,
                ..
            } => ScoringMode::Compressed {
                quantizer: Arc::clone(quantizer),
                codes,
                rerank_budget: *rerank_budget,
            },
        };
        let new = Self::from_csr(
            self.partitioner.clone(),
            self.distance,
            bin_offsets,
            ids,
            Matrix::from_vec(live, dim, flat),
            scoring,
            next_id,
        );
        (new, report)
    }

    /// [`Self::compacted`] plus the WAL checkpoint/handoff protocol, through
    /// `&self` (for callers holding the index behind an `Arc`, like
    /// `QueryEngine::compact`): builds the compacted twin, writes
    /// `CompactionCheckpoint{epoch + 1}` by atomically replacing the log
    /// (write-new → sync → rename), and moves the log onto the new index. On
    /// `Err` this index keeps its delta and its log, but the log is poisoned: a
    /// replace that failed after its rename left the log file unlinked under the old
    /// handle, so this index refuses writes ([`WalError::Poisoned`]) until a retried
    /// call succeeds or the log is recovered.
    ///
    /// Like [`Self::compacted`], the caller must ensure no writer races this call:
    /// a mutation landing between the delta snapshot and the log replace would be
    /// dropped from both.
    pub fn compacted_with_checkpoint(&self) -> Result<(Self, CompactionReport), MutationError>
    where
        P: Clone,
    {
        let (mut new, report) = self.compacted();
        let mut slot = self.wal_slot();
        if let Some(w) = slot.as_mut() {
            w.checkpoint(w.epoch() + 1)?;
        }
        *new.wal.get_mut().expect("wal lock poisoned") = slot.take();
        Ok((new, report))
    }

    /// Attaches a write-ahead log to a **clean** index: every subsequent
    /// insert/delete is appended (and synced per the log's policy) before it is
    /// applied or acked. To resume from a log that already holds records, use
    /// [`Self::recover`] instead — this method is for fresh logs (empty, or just a
    /// checkpoint from the compaction protocol).
    ///
    /// # Panics
    ///
    /// If the index is already mutated, or if its insert record (`5 + 4·dims` bytes)
    /// would exceed [`crate::wal::MAX_RECORD_PAYLOAD`].
    pub fn with_wal(self, wal: Wal) -> Self {
        assert!(
            !self.is_mutated(),
            "with_wal: attach the log before mutating (or recover from it)"
        );
        crate::wal::assert_insert_fits(self.dims(), "with_wal");
        *self.wal_slot() = Some(wal);
        self
    }

    /// Replays `wal` into `base` — a clean index over the last checkpointed point
    /// set, with its ids and its next id — rebuilding a delta bit-identical to the
    /// pre-crash in-memory state, then re-attaches the log so serving can resume
    /// appending where it left off.
    ///
    /// At most one torn tail record is tolerated (truncated in storage and
    /// reported); a checksum mismatch mid-log, an unknown record kind, a
    /// mid-log checkpoint, or a record that replays inconsistently against `base`
    /// (wrong dims, dead id) is a loud [`WalError::Corrupt`] — recovery never
    /// papers over a log that disagrees with its index.
    ///
    /// # Panics
    ///
    /// Like [`Self::with_wal`]: on a mutated base, or one whose insert record could
    /// not fit in a log record.
    pub fn recover(base: Self, mut wal: Wal) -> Result<(Self, RecoveryReport), WalError> {
        assert!(
            !base.is_mutated(),
            "recover: the base index must be clean (the log holds the whole delta)"
        );
        crate::wal::assert_insert_fits(base.dims(), "recover");
        let records = wal.read_for_recovery()?;
        let mut report = RecoveryReport {
            torn_tail_bytes: wal.stats().torn_tail_bytes,
            ..RecoveryReport::default()
        };
        let corrupt = |i: usize, reason: String| WalError::Corrupt {
            offset: 0,
            reason: format!("record {i}: {reason}"),
        };
        for (i, rec) in records.iter().enumerate() {
            match rec {
                WalRecord::CompactionCheckpoint { epoch } => {
                    if i != 0 {
                        return Err(corrupt(
                            i,
                            "checkpoint record past the log start (the checkpoint \
                             protocol only ever writes it first)"
                                .into(),
                        ));
                    }
                    wal.set_epoch(*epoch);
                    report.epoch = *epoch;
                }
                WalRecord::Insert { row } => {
                    base.try_insert(row)
                        .map_err(|e| corrupt(i, format!("insert replay refused: {e}")))?;
                    report.replayed_inserts += 1;
                }
                WalRecord::Delete { id } => {
                    let id = usize::try_from(*id)
                        .map_err(|_| corrupt(i, "delete id exceeds usize".into()))?;
                    base.try_delete(id)
                        .map_err(|e| corrupt(i, format!("delete replay refused: {e}")))?;
                    report.replayed_deletes += 1;
                }
            }
        }
        *base.wal_slot() = Some(wal);
        Ok((base, report))
    }

    /// The attached log's counters, if a WAL is attached (`ServeStats` overlays
    /// these into its snapshot).
    pub fn wal_stats(&self) -> Option<WalStats> {
        self.wal_slot().as_ref().map(|w| w.stats())
    }

    /// Syncs the attached log now — the durability point of
    /// [`crate::wal::SyncPolicy::OnFlush`]. A no-op without a WAL.
    pub fn wal_flush(&self) -> Result<(), MutationError> {
        match self.wal_slot().as_mut() {
            Some(w) => w.flush().map_err(MutationError::from),
            None => Ok(()),
        }
    }

    /// Full query: probe bins, scan their contiguous candidate rows, return the top `k`
    /// together with the number of candidates scanned.
    pub fn search(&self, query: &[f32], k: usize, probes: usize) -> SearchResult {
        let bins = self.partitioner.rank_bins(query, probes);
        self.scan_bins(query, &bins, k, None)
    }

    /// Answers every row of `queries` in parallel on the worker pool (the online phase
    /// is embarrassingly parallel across queries).
    ///
    /// Per-query results are merged in row order and each query's computation is
    /// independent, so the output is **bit-identical** to calling [`Self::search`] once
    /// per row, for any pool size — the contract `tests/parallel_equivalence.rs` pins
    /// for the serving path.
    pub fn search_batch(&self, queries: &Matrix, k: usize, probes: usize) -> Vec<SearchResult> {
        (0..queries.rows())
            .into_par_iter()
            .map(|qi| self.search(queries.row(qi), k, probes))
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::partitioner::Partitioner;
    use crate::wal::{MemStorage, SyncPolicy};
    use usp_linalg::kernel;

    /// A 1-D grid partitioner: bin = floor(x) clamped to [0, bins).
    #[derive(Clone)]
    struct GridPartitioner {
        bins: usize,
    }

    impl Partitioner for GridPartitioner {
        fn num_bins(&self) -> usize {
            self.bins
        }
        fn bin_scores(&self, query: &[f32]) -> Vec<f32> {
            let x = query[0];
            (0..self.bins)
                .map(|b| {
                    let center = b as f32 + 0.5;
                    -(x - center).abs()
                })
                .collect()
        }
        fn name(&self) -> String {
            "grid".into()
        }
    }

    fn line_data(n: usize, per_unit: usize) -> Matrix {
        // `per_unit` points uniformly inside each unit interval [i, i+1).
        let mut v = Vec::new();
        for i in 0..n {
            for j in 0..per_unit {
                v.push(i as f32 + (j as f32 + 0.5) / per_unit as f32);
            }
        }
        Matrix::from_vec(n * per_unit, 1, v)
    }

    #[test]
    fn build_produces_expected_buckets() {
        let data = line_data(4, 5);
        let idx = PartitionIndex::build(
            GridPartitioner { bins: 4 },
            &data,
            Distance::SquaredEuclidean,
        );
        assert_eq!(idx.num_bins(), 4);
        assert_eq!(idx.bucket_sizes(), vec![5, 5, 5, 5]);
        assert!((idx.balance().imbalance - 1.0).abs() < 1e-9);
        // All points in bucket 2 have 2 <= x < 3.
        for &id in idx.bucket(2) {
            let x = idx.point(id as usize)[0];
            assert!((2.0..3.0).contains(&x));
        }
    }

    #[test]
    fn csr_layout_mirrors_buckets_and_data() {
        let data = line_data(4, 3);
        let idx = PartitionIndex::build(
            GridPartitioner { bins: 4 },
            &data,
            Distance::SquaredEuclidean,
        );
        // Offsets are monotone and end at n.
        assert_eq!(idx.bin_offsets().len(), 5);
        assert!(idx.bin_offsets().windows(2).all(|w| w[0] <= w[1]));
        assert_eq!(*idx.bin_offsets().last().unwrap(), 12);
        // The id table is the bucket concatenation and a permutation of 0..n.
        let concat: Vec<u32> = (0..4).flat_map(|b| idx.bucket(b).to_vec()).collect();
        assert_eq!(idx.local_to_global(), &concat[..]);
        let mut sorted = concat.clone();
        sorted.sort_unstable();
        assert_eq!(sorted, (0..12).collect::<Vec<u32>>());
        // Every bin's contiguous rows are bit-exact copies of the global rows.
        for b in 0..4 {
            let rows = idx.bin_rows(b);
            for (j, &id) in idx.bucket(b).iter().enumerate() {
                assert_eq!(&rows[j..j + 1], idx.point(id as usize));
            }
        }
    }

    #[test]
    fn more_probes_give_supersets_of_candidates() {
        let data = line_data(4, 5);
        let idx = PartitionIndex::build(
            GridPartitioner { bins: 4 },
            &data,
            Distance::SquaredEuclidean,
        );
        let q = [1.6f32];
        let c1: std::collections::HashSet<u32> = idx.probe(&q, 1).1.into_iter().collect();
        let c2: std::collections::HashSet<u32> = idx.probe(&q, 2).1.into_iter().collect();
        let c4: std::collections::HashSet<u32> = idx.probe(&q, 4).1.into_iter().collect();
        assert!(c1.is_subset(&c2));
        assert!(c2.is_subset(&c4));
        assert_eq!(c4.len(), 20);
    }

    #[test]
    fn search_returns_true_neighbours_with_enough_probes() {
        let data = line_data(4, 5);
        let idx = PartitionIndex::build(
            GridPartitioner { bins: 4 },
            &data,
            Distance::SquaredEuclidean,
        );
        // Query near the boundary between bins 1 and 2.
        let res = idx.search(&[1.95], 3, 2);
        assert_eq!(res.candidates_scanned, 10);
        // Exact nearest points are at 1.9, 2.1 and 1.7.
        let xs: Vec<f32> = res.ids.iter().map(|&i| data.row(i)[0]).collect();
        assert!((xs[0] - 1.9).abs() < 1e-6);
        assert!((xs[1] - 2.1).abs() < 1e-6);
        assert!((xs[2] - 1.7).abs() < 1e-6);
    }

    #[test]
    fn scan_bins_matches_gathered_rerank_over_the_same_stream() {
        let data = line_data(4, 5);
        let idx = PartitionIndex::build(
            GridPartitioner { bins: 4 },
            &data,
            Distance::SquaredEuclidean,
        );
        let q = [1.95f32];
        let (bins, candidates) = idx.probe(&q, 3);
        let scanned = idx.scan_bins(&q, &bins, 4, None);
        let gathered = crate::rerank::rerank(&data, &q, &candidates, 4, idx.distance());
        assert_eq!(scanned.ids, gathered);
        assert_eq!(scanned.candidates_scanned, candidates.len());
    }

    #[test]
    fn scan_bins_budget_truncates_the_least_probable_bins_first() {
        let data = line_data(4, 5);
        let idx = PartitionIndex::build(
            GridPartitioner { bins: 4 },
            &data,
            Distance::SquaredEuclidean,
        );
        let q = [1.95f32];
        let (bins, candidates) = idx.probe(&q, 3);
        for budget in [0, 1, 4, 7, 10, 100] {
            let got = idx.scan_bins(&q, &bins, 3, Some(budget));
            let truncated: Vec<u32> = candidates.iter().copied().take(budget).collect();
            let expect = crate::rerank::rerank(&data, &q, &truncated, 3, idx.distance());
            assert_eq!(got.ids, expect, "budget {budget}");
            assert_eq!(got.candidates_scanned, budget.min(candidates.len()));
        }
    }

    /// A toy [`CodeQuantizer`] for the 1-D grid data: one byte per point, centroid
    /// `c` reconstructs to `c as f32 + 0.5` (the unit-interval centers), so encoding
    /// is `floor(x)` clamped — exact enough that the ADC shortlist ranks like the
    /// true distances on well-separated points.
    struct UnitGridQuantizer {
        levels: usize,
    }

    impl crate::scoring::CodeQuantizer for UnitGridQuantizer {
        fn dim(&self) -> usize {
            1
        }
        fn code_len(&self) -> usize {
            1
        }
        fn encode_into(&self, point: &[f32], out: &mut [u8]) {
            out[0] = (point[0].floor().max(0.0) as usize).min(self.levels - 1) as u8;
        }
        fn adc_table(&self, _distance: Distance, query: &[f32]) -> kernel::AdcTable {
            let table = (0..self.levels)
                .map(|c| {
                    let d = query[0] - (c as f32 + 0.5);
                    d * d
                })
                .collect();
            kernel::AdcTable::Sum {
                table,
                n_centroids: self.levels,
            }
        }
    }

    fn compressed_grid_index(rerank_budget: usize) -> PartitionIndex<GridPartitioner> {
        let data = line_data(4, 5);
        PartitionIndex::build(
            GridPartitioner { bins: 4 },
            &data,
            Distance::SquaredEuclidean,
        )
        .with_scoring(Scoring::compressed(
            Arc::new(UnitGridQuantizer { levels: 4 }),
            rerank_budget,
        ))
    }

    #[test]
    fn compressed_codes_follow_the_csr_permutation() {
        let idx = compressed_grid_index(8);
        for b in 0..4 {
            let codes = idx.bin_codes(b).unwrap();
            assert_eq!(codes.len(), idx.bucket(b).len());
            for (j, &id) in idx.bucket(b).iter().enumerate() {
                let x = idx.point(id as usize)[0];
                assert_eq!(codes[j] as usize, x.floor() as usize, "bin {b} slot {j}");
            }
        }
        assert_eq!(idx.compressed_rerank_budget(), Some(8));
        assert!(idx.quantizer().is_some());
    }

    #[test]
    fn generous_shortlist_makes_compressed_match_exact() {
        // When the shortlist covers the whole probed stream every candidate survives
        // to the exact re-rank in stream order, so the two modes answer identically.
        let exact = PartitionIndex::build(
            GridPartitioner { bins: 4 },
            &line_data(4, 5),
            Distance::SquaredEuclidean,
        );
        let idx = compressed_grid_index(1000);
        let q = [1.95f32];
        for probes in [1, 2, 4] {
            let e = exact.search(&q, 3, probes);
            let c = idx.search(&q, 3, probes);
            assert_eq!(c.ids, e.ids, "probes {probes}");
            assert_eq!(c.candidates_scanned, e.candidates_scanned);
            assert_eq!(c.compressed_scanned, e.candidates_scanned);
            assert_eq!(e.compressed_scanned, 0);
        }
    }

    #[test]
    fn compressed_budget_counts_exact_rerank_work() {
        let idx = compressed_grid_index(6);
        let q = [1.95f32];
        let bins = idx.partitioner().rank_bins(&q, 4);
        // Default budget: shortlist = configured rerank_budget.
        let r = idx.scan_bins(&q, &bins, 3, None);
        assert_eq!(r.compressed_scanned, 20); // every probed code is ADC-scored
        assert_eq!(r.candidates_scanned, 6); // only the shortlist is re-ranked
        assert_eq!(r.ids.len(), 3);
        // The shortlist keeps the ADC-best candidates, so the true neighbours
        // survive and the exact re-rank orders them correctly.
        let exact = idx.scan_bins_with_table(&q, &bins, 3, Some(1000), None);
        assert_eq!(r.ids, exact.ids[..3]);
        // Per-request budgets floor at k and cap the exact work.
        for budget in [1, 4, 10] {
            let r = idx.scan_bins(&q, &bins, 3, Some(budget));
            assert_eq!(r.candidates_scanned, budget.clamp(3, 20), "budget {budget}");
        }
    }

    #[test]
    fn with_scoring_exact_is_the_identity() {
        let data = line_data(4, 5);
        let plain = PartitionIndex::build(
            GridPartitioner { bins: 4 },
            &data,
            Distance::SquaredEuclidean,
        );
        let reset = compressed_grid_index(8).with_scoring(Scoring::Exact);
        let q = [2.4f32];
        assert_eq!(reset.search(&q, 4, 2), plain.search(&q, 4, 2));
        assert!(reset.quantizer().is_none());
        assert!(reset.bin_codes(0).is_none());
        assert!(reset
            .adc_tables_batch(&Matrix::from_vec(1, 1, vec![0.5]))
            .is_none());
    }

    #[test]
    fn from_assignments_respects_given_buckets() {
        let data = line_data(2, 2);
        let idx = PartitionIndex::from_assignments(
            GridPartitioner { bins: 2 },
            &data,
            vec![1, 1, 0, 0],
            Distance::SquaredEuclidean,
        );
        assert_eq!(idx.bucket(1), &[0, 1]);
        assert_eq!(idx.bucket(0), &[2, 3]);
        let bins: Vec<_> = (0..5).map(|id| idx.bin_of(id)).collect();
        assert_eq!(bins, [Some(1), Some(1), Some(0), Some(0), None]);
    }

    #[test]
    fn search_batch_matches_per_query_search() {
        let data = line_data(4, 5);
        let idx = PartitionIndex::build(
            GridPartitioner { bins: 4 },
            &data,
            Distance::SquaredEuclidean,
        );
        let queries = Matrix::from_vec(5, 1, vec![0.4, 1.95, 2.5, 3.9, 1.1]);
        let batch = idx.search_batch(&queries, 3, 2);
        assert_eq!(batch.len(), 5);
        for (qi, got) in batch.iter().enumerate() {
            let expect = idx.search(queries.row(qi), 3, 2);
            assert_eq!(got, &expect, "batch result differs for query {qi}");
        }
    }

    #[test]
    fn zero_dimensional_datasets_are_searchable() {
        // Degenerate but previously supported: with no coordinates every distance is
        // the metric's empty-row value, so search degenerates to the first k
        // candidates in stream order instead of panicking in the kernel.
        use crate::partitioner::RoundRobinPartitioner;
        let data = Matrix::zeros(6, 0);
        let idx = PartitionIndex::build(
            RoundRobinPartitioner::new(2),
            &data,
            Distance::SquaredEuclidean,
        );
        let res = idx.search(&[], 3, 2);
        assert_eq!(res.candidates_scanned, 6);
        assert_eq!(res.ids, vec![0, 1, 2]);
    }

    #[test]
    fn insert_routes_through_the_partitioner_and_is_searchable() {
        let data = line_data(4, 5);
        let idx = PartitionIndex::build(
            GridPartitioner { bins: 4 },
            &data,
            Distance::SquaredEuclidean,
        );
        assert!(!idx.is_mutated());
        let id = idx.insert(&[2.45]);
        assert_eq!(id, 20);
        assert!(idx.is_mutated());
        // The point landed in bin 2's membin under its grid assignment.
        let delta = idx.delta();
        assert_eq!(delta.membin(2).ids(), &[20]);
        assert_eq!(delta.membin(2).row(0), &[2.45]);
        drop(delta);
        // It is immediately the nearest neighbour of a matching query.
        let res = idx.search(&[2.44], 1, 1);
        assert_eq!(res.ids, vec![20]);
        assert_eq!(res.candidates_scanned, 6); // 5 CSR rows + 1 membin row
                                               // And it appears in the probe stream after the bin's CSR ids.
        let (_, cands) = idx.probe(&[2.5], 1);
        assert_eq!(*cands.last().unwrap(), 20);
    }

    #[test]
    fn delete_hides_points_and_rejects_bad_ids() {
        let data = line_data(4, 5);
        let idx = PartitionIndex::build(
            GridPartitioner { bins: 4 },
            &data,
            Distance::SquaredEuclidean,
        );
        let victim = idx.search(&[1.95], 1, 1).ids[0];
        assert!(idx.delete(victim));
        assert!(!idx.delete(victim), "double delete reports false");
        assert!(!idx.delete(999), "out-of-range id reports false");
        assert!(!idx.search(&[1.95], 5, 4).ids.contains(&victim));
        // Deleting an inserted point hides it too.
        let id = idx.insert(&[1.95]);
        assert_eq!(idx.search(&[1.95], 1, 1).ids, vec![id]);
        assert!(idx.delete(id));
        assert!(!idx.search(&[1.95], 5, 4).ids.contains(&id));
    }

    #[test]
    fn try_mutations_refuse_with_typed_errors_and_mutate_nothing() {
        // The searcher-level refusal contract every serving path inherits:
        // validation runs before any state change (or WAL append), and each
        // refusal is a distinct `MutationError` value.
        let data = line_data(4, 5);
        let idx = PartitionIndex::build(
            GridPartitioner { bins: 4 },
            &data,
            Distance::SquaredEuclidean,
        );
        assert_eq!(
            idx.try_insert(&[1.0, 2.0]),
            Err(MutationError::DimsMismatch { got: 2, want: 1 })
        );
        assert_eq!(
            idx.try_delete(999),
            Err(MutationError::UnknownId { id: 999 })
        );
        assert!(!idx.is_mutated(), "refusals must not dirty the index");
        assert_eq!(idx.try_delete(3), Ok(()));
        assert_eq!(
            idx.try_delete(3),
            Err(MutationError::AlreadyDeleted { id: 3 })
        );
        let id = idx.try_insert(&[0.5]).expect("dims match");
        assert_eq!(idx.try_delete(id), Ok(()));
        assert_eq!(
            idx.try_delete(id),
            Err(MutationError::AlreadyDeleted { id })
        );
    }

    #[test]
    fn delta_scan_budget_counts_live_candidates() {
        let data = line_data(4, 5);
        let idx = PartitionIndex::build(
            GridPartitioner { bins: 4 },
            &data,
            Distance::SquaredEuclidean,
        );
        let q = [1.95f32];
        let (bins, live) = {
            idx.delete(idx.bucket(1)[0] as usize);
            idx.delete(idx.bucket(1)[3] as usize);
            idx.insert(&[1.2]);
            idx.probe(&q, 3)
        };
        for budget in [0, 1, 3, 5, 9, 100] {
            let got = idx.scan_bins(&q, &bins, 3, Some(budget));
            assert_eq!(
                got.candidates_scanned,
                budget.min(live.len()),
                "budget {budget}"
            );
            // The budgeted result equals re-ranking the truncated live stream
            // (id 20 is the inserted point: rerank gathers from the base matrix, which
            // does not hold membin rows, so only compare while the stream stays in base).
            let truncated: Vec<u32> = live.iter().copied().take(budget).collect();
            if truncated.iter().all(|&c| (c as usize) < 20) {
                let expect = crate::rerank::rerank(&data, &q, &truncated, 3, idx.distance());
                assert_eq!(got.ids, expect, "budget {budget}");
            }
        }
    }

    #[test]
    fn compaction_folds_the_delta_and_resets_to_clean() {
        let data = line_data(4, 5);
        let idx = PartitionIndex::build(
            GridPartitioner { bins: 4 },
            &data,
            Distance::SquaredEuclidean,
        );
        idx.delete(7);
        let a = idx.insert(&[0.2]);
        let b = idx.insert(&[3.72]);
        idx.delete(a);
        let (idx, report) = idx.compacted();
        assert!(!idx.is_mutated());
        assert_eq!(report.live_points, 20); // 20 - 1 deleted + 2 inserted - 1 deleted
        assert_eq!(report.merged_inserts, 1);
        assert_eq!(report.dropped_tombstones, 2);
        // Ids kept: the survivors are the old ids, the merged insert a CSR point.
        let mut live = idx.local_to_global().to_vec();
        live.sort_unstable();
        let expect: Vec<u32> = (0..20).filter(|&id| id != 7).chain([b as u32]).collect();
        assert_eq!(live, expect);
        assert_eq!(*idx.bin_offsets().last().unwrap(), 20);
        assert_eq!((idx.bin_of(b), idx.point(b)), (Some(3), &[3.72][..]));
        assert_eq!(idx.point(8), data.row(8));
        assert_eq!(idx.search(&[3.73], 1, 1).ids, vec![b]);
        // Dropped ids stay dropped; the next insert takes a fresh id.
        assert_eq!((idx.bin_of(7), idx.bin_of(a)), (None, None));
        for gone in [7, a] {
            assert_eq!(
                idx.try_delete(gone),
                Err(MutationError::AlreadyDeleted { id: gone })
            );
        }
        assert_eq!(idx.insert(&[1.5]), 22);
        assert_eq!(idx.try_delete(23), Err(MutationError::UnknownId { id: 23 }));
        assert_eq!((idx.try_delete(b), idx.try_delete(22)), (Ok(()), Ok(())));
    }

    #[test]
    fn compacted_compressed_index_reencodes_codes() {
        let idx = compressed_grid_index(1000);
        let id = idx.insert(&[2.6]);
        idx.delete(3);
        // Pre-compaction: the inserted point is found through the membin tail.
        assert_eq!(idx.search(&[2.6], 1, 1).ids, vec![id]);
        let (idx, _) = idx.compacted();
        assert!(
            idx.quantizer().is_some(),
            "scoring mode survives compaction"
        );
        assert_eq!(idx.compressed_rerank_budget(), Some(1000));
        assert_eq!(idx.search(&[2.6], 1, 1).ids, vec![id]);
        // The code array mirrors the new CSR permutation, the insert's code included.
        for bin in 0..4 {
            let codes = idx.bin_codes(bin).unwrap();
            for (j, &pid) in idx.bucket(bin).iter().enumerate() {
                let x = idx.point(pid as usize)[0];
                assert_eq!(codes[j] as usize, x.floor() as usize);
            }
        }
    }

    #[test]
    fn needs_compaction_thresholds_the_delta_fraction() {
        let data = line_data(4, 5); // 20 base rows: fires at delta >= 2
        let idx = PartitionIndex::build(
            GridPartitioner { bins: 4 },
            &data,
            Distance::SquaredEuclidean,
        );
        assert!(!idx.needs_compaction());
        idx.insert(&[1.0]);
        assert!(!idx.needs_compaction());
        idx.delete(0);
        let stats = idx.mutation_stats();
        assert_eq!(
            (stats.base_points, stats.inserts, stats.tombstones),
            (20, 1, 1)
        );
        assert!((stats.delta_fraction - 0.1).abs() < 1e-12);
        assert!(idx.needs_compaction());
    }

    #[test]
    fn an_insert_past_the_id_space_is_refused_before_the_log() {
        let storage = MemStorage::new();
        let mut idx = PartitionIndex::build(
            GridPartitioner { bins: 4 },
            &line_data(4, 5),
            Distance::SquaredEuclidean,
        )
        .with_wal(Wal::new(Box::new(storage.clone()), SyncPolicy::EveryN(1)));
        // Every u32 id issued: the next insert has none to take.
        *idx.mutation.get_mut().unwrap() = MutationState::new(1, 20, 4, 1 << 32);
        let before = storage.contents();
        assert_eq!(idx.try_insert(&[1.5]), Err(MutationError::IdSpaceExhausted));
        assert_eq!(
            storage.contents(),
            before,
            "a refused insert reached the log"
        );
        assert!(!idx.is_mutated());
    }

    #[test]
    fn distance_getter_reports_build_metric() {
        let data = line_data(2, 2);
        let idx = PartitionIndex::build(GridPartitioner { bins: 2 }, &data, Distance::Euclidean);
        assert!(matches!(idx.distance(), Distance::Euclidean));
    }
}

#[cfg(test)]
mod proptests {
    use super::*;
    use crate::partitioner::RoundRobinPartitioner;
    use proptest::prelude::*;

    fn pseudo_random_matrix(n: usize, dim: usize, seed: u64) -> Matrix {
        usp_linalg::rng::normal_matrix(&mut usp_linalg::rng::seeded(seed), n, dim, 1.0)
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(16))]
        /// The CSR invariants: offsets monotone ending at n, flat rows bit-equal to
        /// the original rows they mirror, and the id table exactly the bucket
        /// concatenation (hence a permutation of 0..n).
        #[test]
        fn csr_invariants_hold_for_arbitrary_partitions(
            n in 1usize..120,
            dim in 1usize..6,
            bins in 1usize..9,
            seed in 0u64..1000,
        ) {
            let data = pseudo_random_matrix(n, dim, seed);
            let idx = PartitionIndex::build(
                RoundRobinPartitioner::new(bins),
                &data,
                Distance::SquaredEuclidean,
            );
            let offsets = idx.bin_offsets();
            prop_assert_eq!(offsets.len(), bins + 1);
            prop_assert_eq!(offsets[0], 0);
            prop_assert!(offsets.windows(2).all(|w| w[0] <= w[1]));
            prop_assert_eq!(*offsets.last().unwrap(), n);

            let concat: Vec<u32> =
                (0..bins).flat_map(|b| idx.bucket(b).to_vec()).collect();
            prop_assert_eq!(idx.local_to_global(), &concat[..]);
            let mut sorted = concat;
            sorted.sort_unstable();
            prop_assert_eq!(sorted, (0..n as u32).collect::<Vec<u32>>());

            for (local, &global) in idx.local_to_global().iter().enumerate() {
                let b = idx.bin_of(global as usize).unwrap();
                let start = idx.bin_offsets()[b];
                let row = &idx.bin_rows(b)[(local - start) * dim..(local - start + 1) * dim];
                prop_assert_eq!(row, data.row(global as usize));
            }
        }
    }
}
