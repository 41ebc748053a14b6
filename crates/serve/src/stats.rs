//! Serving statistics: throughput, latency percentiles, per-bin probe counts.
//!
//! Latency percentiles come from an HDR-style log-bucketed histogram instead of a
//! capped sample buffer: recording is O(1), memory is a fixed ~30 KiB regardless of
//! how long the engine lives, **no sample is ever dropped** (the old buffer stopped
//! describing traffic after its cap), and percentile reads carry a bounded relative
//! error of at most 1/64 ≈ 1.6% (values below 128 µs are exact). Counters and the
//! mean stay exact — they are tracked as plain sums next to the histogram.

use std::sync::{Mutex, MutexGuard, PoisonError};

use serde::Value;
use usp_index::WalStats;

/// Sub-bucket resolution bits of the latency histogram: each power-of-two octave is
/// split into `2^SUB_BITS` linear sub-buckets, so a bucket's width is at most
/// `1/2^SUB_BITS` of its value — the bounded-relative-error knob. With 6 bits every
/// value below `2^(SUB_BITS + 1)` = 128 µs maps to a width-1 bucket, i.e. is exact.
const SUB_BITS: u32 = 6;
const SUBS: usize = 1 << SUB_BITS;
/// One sub-bucket array per octave of `u64` range above the exact region (octaves
/// `1..=64 - SUB_BITS`), plus the exact region itself at octave 0.
const NUM_BUCKETS: usize = (64 - SUB_BITS as usize + 1) * SUBS;

/// An HDR-style log-bucketed histogram over `u64` values (microseconds here).
///
/// Bucketing: values below `SUBS` index directly (exact); above, a value lands in the
/// sub-bucket given by its top `SUB_BITS + 1` significant bits, so bucket width grows
/// with magnitude but relative width never exceeds `1/SUBS`. Percentiles use the
/// nearest-rank convention on the bucket counts and report the bucket's lower bound —
/// exact where buckets have width 1, within `1/SUBS` relative below the true sample
/// elsewhere.
#[derive(Debug)]
struct LatencyHistogram {
    counts: Vec<u64>,
    total: u64,
    sum: u64,
}

impl LatencyHistogram {
    fn new() -> Self {
        Self {
            counts: vec![0; NUM_BUCKETS],
            total: 0,
            sum: 0,
        }
    }

    /// Bucket index of a value: identity below `SUBS`, log-bucketed above.
    #[inline]
    fn bucket_of(v: u64) -> usize {
        if v < SUBS as u64 {
            return v as usize;
        }
        let msb = 63 - v.leading_zeros();
        let shift = msb - SUB_BITS;
        let sub = ((v >> shift) as usize) & (SUBS - 1);
        ((msb - SUB_BITS + 1) as usize) * SUBS + sub
    }

    /// Lower bound of a bucket — the value `percentile` reports for it.
    #[inline]
    fn bucket_low(bucket: usize) -> u64 {
        let octave = bucket / SUBS;
        let sub = (bucket % SUBS) as u64;
        if octave == 0 {
            sub
        } else {
            (SUBS as u64 + sub) << (octave - 1)
        }
    }

    fn record(&mut self, v: u64) {
        self.counts[Self::bucket_of(v)] += 1;
        self.total += 1;
        self.sum += v;
    }

    /// Exact mean of every recorded value (0.0 when empty).
    fn mean(&self) -> f64 {
        if self.total == 0 {
            0.0
        } else {
            self.sum as f64 / self.total as f64
        }
    }

    /// Nearest-rank percentile (0 when empty): the value at sorted index
    /// `round((total - 1) · q)`, reported as its bucket's lower bound.
    fn percentile(&self, q: f64) -> u64 {
        if self.total == 0 {
            return 0;
        }
        let rank = ((self.total - 1) as f64 * q).round() as u64;
        let mut seen = 0u64;
        for (b, &c) in self.counts.iter().enumerate() {
            seen += c;
            if seen > rank {
                return Self::bucket_low(b);
            }
        }
        // Unreachable: seen reaches total > rank by the end.
        Self::bucket_low(NUM_BUCKETS - 1)
    }
}

/// Running serving counters, updated after every batch. Interior-mutable so the engine
/// can stay `&self` on the hot path; the lock is taken once per batch, not per query.
#[derive(Debug)]
pub struct ServeStats {
    inner: Mutex<Inner>,
}

/// The accumulator behind [`ServeStats`]. The verbatim counters add up in `counts`
/// itself; beside it sit only the sums and histograms the snapshot's derived fields
/// are computed from. `counts`' derived fields and its `wal` stay at zero.
#[derive(Debug)]
struct Inner {
    counts: StatsSnapshot,
    /// Exact distance evaluations, the numerator of `mean_candidates`.
    candidates_scanned: u64,
    /// Candidates scored in the compressed domain (ADC lookups) before the exact
    /// pass; 0 while the engine serves an exact-mode index.
    compressed_scanned: u64,
    /// Wall-clock busy time across batches, µs (idle time between batches excluded,
    /// so `qps` measures the engine, not the request arrival process).
    busy_us: u64,
    latencies: LatencyHistogram,
    /// Ingress stage span: admission → the query's batch being taken, µs.
    pending_wait: LatencyHistogram,
}

impl Inner {
    fn zeroed(bins: usize) -> Self {
        Self {
            counts: StatsSnapshot {
                bin_probes: vec![0; bins],
                ..StatsSnapshot::default()
            },
            candidates_scanned: 0,
            compressed_scanned: 0,
            busy_us: 0,
            latencies: LatencyHistogram::new(),
            pending_wait: LatencyHistogram::new(),
        }
    }
}

impl ServeStats {
    pub(crate) fn new(bins: usize) -> Self {
        Self {
            inner: Mutex::new(Inner::zeroed(bins)),
        }
    }

    /// Locks the counters, recovering a poisoned mutex. Everything behind this
    /// lock is invariant-free telemetry — monotone counters and a histogram whose
    /// per-bucket increments are independent — so a recording thread that panicked
    /// mid-update can at worst under-count by its own partial record. Pre-fix, the
    /// `lock().unwrap()` here turned that one panic into a cascade: every later
    /// `snapshot()`/record on *any* thread re-panicked on `PoisonError`. See
    /// DESIGN.md §6 ("lock-poisoning convention").
    fn lock(&self) -> MutexGuard<'_, Inner> {
        self.inner.lock().unwrap_or_else(PoisonError::into_inner)
    }

    /// Folds one served batch into the counters. `candidates_scanned` counts exact
    /// distance evaluations; `compressed_scanned` counts first-pass ADC evaluations
    /// (0 for exact-mode engines).
    pub(crate) fn record_batch(
        &self,
        latencies_us: &[u64],
        probed_bins: impl Iterator<Item = usize>,
        candidates_scanned: u64,
        compressed_scanned: u64,
        busy_us: u64,
    ) {
        let mut inner = self.lock();
        inner.counts.queries += latencies_us.len() as u64;
        inner.counts.batches += 1;
        inner.candidates_scanned += candidates_scanned;
        inner.compressed_scanned += compressed_scanned;
        inner.busy_us += busy_us;
        for &l in latencies_us {
            inner.latencies.record(l);
        }
        for b in probed_bins {
            inner.counts.bin_probes[b] += 1;
        }
    }

    /// Counts one point inserted through the engine's write path.
    pub(crate) fn record_insert(&self) {
        self.lock().counts.inserts += 1;
    }

    /// Counts one point deleted (tombstoned) through the engine's write path.
    pub(crate) fn record_delete(&self) {
        self.lock().counts.deletes += 1;
    }

    /// Folds ingress frame dispositions into the counters (one call per event
    /// keeps the ingress loop branch-free; the lock is uncontended there).
    pub(crate) fn record_frames(&self, accepted: u64, shed: u64, malformed: u64) {
        let counts = &mut self.lock().counts;
        counts.accepted_frames += accepted;
        counts.shed_frames += shed;
        counts.malformed_frames += malformed;
    }

    /// Raises the pending-queue high-water mark to `depth` if it exceeds it.
    pub(crate) fn record_queue_depth(&self, depth: u64) {
        let counts = &mut self.lock().counts;
        counts.queue_depth_hwm = counts.queue_depth_hwm.max(depth);
    }

    /// Folds one ingress batch's admission → batch-taken waits (µs, one per query)
    /// into the pending-wait histogram, under one lock.
    pub(crate) fn record_pending_waits(&self, waits_us: impl Iterator<Item = u64>) {
        let mut inner = self.lock();
        for w in waits_us {
            inner.pending_wait.record(w);
        }
    }

    /// A point-in-time summary of everything recorded so far: the verbatim counters
    /// as accumulated, and the ten derived fields computed from the sums and
    /// histograms beside them.
    pub(crate) fn snapshot(&self) -> StatsSnapshot {
        let inner = self.lock();
        let queries = inner.counts.queries as f64;
        StatsSnapshot {
            mean_batch_size: ratio(queries, inner.counts.batches as f64),
            qps: ratio(queries, inner.busy_us as f64 / 1e6),
            mean_candidates: ratio(inner.candidates_scanned as f64, queries),
            mean_compressed_candidates: ratio(inner.compressed_scanned as f64, queries),
            survivor_ratio: ratio(
                inner.candidates_scanned as f64,
                inner.compressed_scanned as f64,
            ),
            mean_latency_us: inner.latencies.mean(),
            p50_latency_us: inner.latencies.percentile(0.50),
            p99_latency_us: inner.latencies.percentile(0.99),
            pending_wait_p50_us: inner.pending_wait.percentile(0.50),
            pending_wait_p99_us: inner.pending_wait.percentile(0.99),
            ..inner.counts.clone()
        }
    }

    /// Clears every counter (the bin-probe vector keeps its length).
    pub(crate) fn reset(&self) {
        let mut inner = self.lock();
        *inner = Inner::zeroed(inner.counts.bin_probes.len());
    }
}

fn ratio(num: f64, den: f64) -> f64 {
    if den > 0.0 {
        num / den
    } else {
        0.0
    }
}

/// Point-in-time serving summary, the body of an `OP_STATS` reply.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct StatsSnapshot {
    /// Queries answered.
    pub queries: u64,
    /// Batches executed (a single `query` call counts as a batch of one).
    pub batches: u64,
    /// Mean queries per batch.
    pub mean_batch_size: f64,
    /// Queries per second of engine busy time (idle gaps between batches excluded).
    pub qps: f64,
    /// Mean candidate-set size per query (exact distance evaluations).
    pub mean_candidates: f64,
    /// Mean compressed-pass (ADC) candidates per query; 0.0 for exact-mode engines.
    pub mean_compressed_candidates: f64,
    /// Fraction of compressed-pass candidates surviving into the exact re-rank
    /// (`candidates_scanned / compressed_scanned`); 0.0 when no compressed pass ran.
    pub survivor_ratio: f64,
    /// Mean per-query latency, µs (exact).
    pub mean_latency_us: f64,
    /// Median per-query latency, µs (log-bucketed: exact below 128 µs, within 1/64
    /// relative above).
    pub p50_latency_us: u64,
    /// 99th-percentile per-query latency, µs (same bounded relative error).
    pub p99_latency_us: u64,
    /// Points inserted through the engine's write path since the last reset.
    pub inserts: u64,
    /// Points deleted (tombstoned) through the engine's write path since the last
    /// reset.
    pub deletes: u64,
    /// Per-bin probe counts (`bin_probes[b]` = times bin `b`'s candidates were
    /// scanned) — the per-bin load gauge: how the router spreads traffic over the
    /// partition.
    pub bin_probes: Vec<u64>,
    /// Network-ingress frames admitted into the serving path (0 when the engine
    /// is driven directly, without an ingress in front).
    pub accepted_frames: u64,
    /// Network-ingress frames refused with a `SHED` reply (queue at capacity).
    pub shed_frames: u64,
    /// Network-ingress frames answered with a malformed-frame reply.
    pub malformed_frames: u64,
    /// High-water mark of the ingress pending queue depth — bounded by the
    /// configured queue capacity whenever backpressure is working.
    pub queue_depth_hwm: u64,
    /// Median time an admitted query waited in the ingress pending queue before its
    /// batch was taken, µs (same histogram error as the latency percentiles). The
    /// ingress serves whatever is pending the moment it is idle, so this is time
    /// spent behind the batch being served, never a batching window.
    pub pending_wait_p50_us: u64,
    /// 99th-percentile pending-queue wait, µs.
    pub pending_wait_p99_us: u64,
    /// The index's write-ahead-log counters, read from the log — the durability
    /// source of truth — when the snapshot is taken, so they survive engine-level
    /// stat resets; all zero for an engine without a WAL.
    pub wal: WalStats,
}

impl StatsSnapshot {
    /// Copies the frame counters, the queue high-water mark and the pending-wait
    /// percentiles of an ingress-side snapshot into this (engine-side) one — what an
    /// `OP_STATS` reply carries.
    pub fn overlay_ingress(&mut self, ingress: &StatsSnapshot) {
        self.accepted_frames = ingress.accepted_frames;
        self.shed_frames = ingress.shed_frames;
        self.malformed_frames = ingress.malformed_frames;
        self.queue_depth_hwm = ingress.queue_depth_hwm;
        self.pending_wait_p50_us = ingress.pending_wait_p50_us;
        self.pending_wait_p99_us = ingress.pending_wait_p99_us;
    }

    /// The JSON tree of an `OP_STATS` reply: every field under its own name, in
    /// declaration order, the log's counters as `wal_<name>`; a count above
    /// `i64::MAX` is a `UInt`.
    pub(crate) fn to_value(&self) -> Value {
        let count = |n: u64| i64::try_from(n).map_or(Value::UInt(n), Value::Int);
        let fields = [
            ("queries", count(self.queries)),
            ("batches", count(self.batches)),
            ("mean_batch_size", Value::Float(self.mean_batch_size)),
            ("qps", Value::Float(self.qps)),
            ("mean_candidates", Value::Float(self.mean_candidates)),
            (
                "mean_compressed_candidates",
                Value::Float(self.mean_compressed_candidates),
            ),
            ("survivor_ratio", Value::Float(self.survivor_ratio)),
            ("mean_latency_us", Value::Float(self.mean_latency_us)),
            ("p50_latency_us", count(self.p50_latency_us)),
            ("p99_latency_us", count(self.p99_latency_us)),
            ("inserts", count(self.inserts)),
            ("deletes", count(self.deletes)),
            (
                "bin_probes",
                Value::Array(self.bin_probes.iter().map(|&n| count(n)).collect()),
            ),
            ("accepted_frames", count(self.accepted_frames)),
            ("shed_frames", count(self.shed_frames)),
            ("malformed_frames", count(self.malformed_frames)),
            ("queue_depth_hwm", count(self.queue_depth_hwm)),
            ("pending_wait_p50_us", count(self.pending_wait_p50_us)),
            ("pending_wait_p99_us", count(self.pending_wait_p99_us)),
            ("wal_appends", count(self.wal.appends)),
            ("wal_bytes", count(self.wal.bytes)),
            ("wal_sync_errors", count(self.wal.sync_errors)),
            ("wal_replayed_records", count(self.wal.replayed_records)),
            ("wal_torn_tail_bytes", count(self.wal.torn_tail_bytes)),
            ("wal_epoch", count(self.wal.epoch)),
        ];
        Value::Object(fields.map(|(k, v)| (k.to_string(), v)).into())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn percentiles_use_nearest_rank() {
        // Samples 1..=100 all sit below the 128 µs exact region, so the histogram
        // reproduces the old sorted-buffer percentiles exactly:
        // idx = round((n-1) * q): round(49.5) = 50 -> value 51.
        let stats = ServeStats::new(1);
        let samples: Vec<u64> = (1..=100).collect();
        stats.record_batch(&samples, std::iter::empty(), 0, 0, 100);
        let snap = stats.snapshot();
        assert_eq!(snap.p50_latency_us, 51);
        assert_eq!(snap.p99_latency_us, 99);
    }

    #[test]
    fn zero_samples_snapshot_is_all_zeros() {
        let stats = ServeStats::new(3);
        let snap = stats.snapshot();
        assert_eq!(snap.queries, 0);
        assert_eq!(snap.mean_latency_us, 0.0);
        assert_eq!(snap.p50_latency_us, 0);
        assert_eq!(snap.p99_latency_us, 0);
        assert_eq!(snap.qps, 0.0);
        // A batch that recorded zero queries (possible via an empty flush) must not
        // poison the ratios either.
        stats.record_batch(&[], std::iter::empty(), 0, 0, 5);
        let snap = stats.snapshot();
        assert_eq!(snap.queries, 0);
        assert_eq!(snap.batches, 1);
        assert_eq!(snap.mean_latency_us, 0.0);
        assert_eq!(snap.p50_latency_us, 0);
        assert_eq!(snap.qps, 0.0);
    }

    #[test]
    fn single_sample_is_every_percentile() {
        let stats = ServeStats::new(1);
        stats.record_batch(&[42], [0usize].into_iter(), 10, 0, 42);
        let snap = stats.snapshot();
        assert_eq!(snap.mean_latency_us, 42.0);
        assert_eq!(snap.p50_latency_us, 42);
        assert_eq!(snap.p99_latency_us, 42);
    }

    #[test]
    fn all_equal_latencies_collapse_the_distribution() {
        let stats = ServeStats::new(1);
        stats.record_batch(&[7; 33], std::iter::empty(), 0, 0, 33);
        let snap = stats.snapshot();
        assert_eq!(snap.mean_latency_us, 7.0);
        assert_eq!(snap.p50_latency_us, 7);
        assert_eq!(snap.p99_latency_us, 7);
    }

    #[test]
    fn two_samples_pin_the_rounding_direction() {
        // idx = round((n-1)·q): with n = 2, p50 rounds 0.5 up to index 1 (the larger
        // sample) and p99 lands there too — documents the nearest-rank convention so a
        // refactor cannot silently shift it.
        let stats = ServeStats::new(1);
        stats.record_batch(&[10, 20], std::iter::empty(), 0, 0, 30);
        let snap = stats.snapshot();
        assert_eq!(snap.p50_latency_us, 20);
        assert_eq!(snap.p99_latency_us, 20);
        assert_eq!(snap.mean_latency_us, 15.0);
    }

    #[test]
    fn late_outliers_stay_visible_with_exact_mean() {
        // The old capped sample buffer dropped everything after its cap, hiding late
        // outliers from the percentiles. The histogram never drops: a tail value
        // recorded after a million cheap queries still surfaces at p100, within the
        // documented 1/64 relative error, and the mean stays exact.
        let stats = ServeStats::new(1);
        stats.record_batch(&vec![5; 1 << 20], std::iter::empty(), 0, 0, 100);
        stats.record_batch(&[1_000_000], std::iter::empty(), 0, 0, 100);
        let snap = stats.snapshot();
        assert_eq!(snap.queries, (1 << 20) + 1);
        assert_eq!(snap.batches, 2);
        assert_eq!(snap.p50_latency_us, 5);
        // p100 must land on the outlier's bucket.
        let inner = stats.lock();
        let p100 = inner.latencies.percentile(1.0);
        drop(inner);
        let rel_err = (1_000_000f64 - p100 as f64) / 1_000_000f64;
        assert!(
            (0.0..1.0 / 64.0).contains(&rel_err),
            "p100 {p100} vs true 1000000 (rel err {rel_err})"
        );
        // Exact mean: (5 * 2^20 + 1e6) / (2^20 + 1).
        let expect = (5.0 * (1u64 << 20) as f64 + 1e6) / ((1u64 << 20) + 1) as f64;
        assert_eq!(snap.mean_latency_us, expect);
    }

    #[test]
    fn bucket_mapping_is_exact_below_128_and_monotone_above() {
        // Every value below 2^(SUB_BITS+1) occupies its own bucket (width 1)...
        for v in 0..128u64 {
            assert_eq!(
                LatencyHistogram::bucket_low(LatencyHistogram::bucket_of(v)),
                v
            );
        }
        // ...and above, lower bounds are monotone with bounded relative error.
        let mut prev_bucket = 0usize;
        for exp in 7..63 {
            for v in [
                1u64 << exp,
                (1u64 << exp) + (1 << (exp - 2)),
                (1u64 << (exp + 1)) - 1,
            ] {
                let b = LatencyHistogram::bucket_of(v);
                assert!(b >= prev_bucket, "bucket order regressed at {v}");
                prev_bucket = b;
                let low = LatencyHistogram::bucket_low(b);
                assert!(low <= v, "lower bound {low} above value {v}");
                assert!(
                    (v - low) as f64 <= v as f64 / 64.0,
                    "bucket width at {v} exceeds 1/64 relative (low {low})"
                );
            }
        }
        // The largest representable value maps inside the table.
        assert!(LatencyHistogram::bucket_of(u64::MAX) < NUM_BUCKETS);
    }

    #[test]
    fn compressed_pass_telemetry_tracks_survivor_ratio() {
        let stats = ServeStats::new(2);
        // Exact-only traffic leaves the compressed counters at zero (and the ratio
        // well-defined at 0.0, not NaN).
        stats.record_batch(&[5, 5], std::iter::empty(), 40, 0, 10);
        let snap = stats.snapshot();
        assert_eq!(snap.mean_compressed_candidates, 0.0);
        assert_eq!(snap.survivor_ratio, 0.0);
        // Two compressed queries: 1000 ADC evaluations feeding 100 exact re-ranks.
        stats.record_batch(&[5, 5], std::iter::empty(), 60, 1000, 10);
        let snap = stats.snapshot();
        assert_eq!(snap.queries, 4);
        assert_eq!(snap.mean_candidates, 25.0);
        assert_eq!(snap.mean_compressed_candidates, 250.0);
        assert_eq!(snap.survivor_ratio, 0.1);
        stats.reset();
        assert_eq!(stats.snapshot().survivor_ratio, 0.0);
    }

    #[test]
    fn mutation_counters_accumulate_and_reset() {
        let stats = ServeStats::new(2);
        assert_eq!((stats.snapshot().inserts, stats.snapshot().deletes), (0, 0));
        stats.record_insert();
        stats.record_insert();
        stats.record_delete();
        let snap = stats.snapshot();
        assert_eq!((snap.inserts, snap.deletes), (2, 1));
        stats.reset();
        let snap = stats.snapshot();
        assert_eq!((snap.inserts, snap.deletes), (0, 0));
    }

    #[test]
    fn poisoned_mutex_no_longer_cascades_into_snapshot_panics() {
        // Pre-fix regression: a panic on any recording thread while holding the
        // stats lock poisoned the mutex, and every later `snapshot()`/record on
        // *any* thread re-panicked on `PoisonError` — one engine panic became a
        // process-wide telemetry outage. Poison the lock deliberately and pin
        // that recording and snapshotting keep working.
        let stats = ServeStats::new(2);
        stats.record_batch(&[10, 20], [0usize].into_iter(), 5, 0, 30);
        let poison = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            let _guard = stats.lock();
            panic!("recording thread dies mid-update");
        }));
        assert!(poison.is_err());
        assert!(
            stats.inner.is_poisoned(),
            "the panic must have poisoned the lock"
        );
        // All of these panicked pre-fix:
        let snap = stats.snapshot();
        assert_eq!(snap.queries, 2);
        stats.record_batch(&[30], [1usize].into_iter(), 5, 0, 10);
        stats.record_insert();
        stats.record_delete();
        stats.record_frames(1, 2, 3);
        stats.record_queue_depth(9);
        let snap = stats.snapshot();
        assert_eq!(snap.queries, 3);
        assert_eq!((snap.inserts, snap.deletes), (1, 1));
        assert_eq!(
            (
                snap.accepted_frames,
                snap.shed_frames,
                snap.malformed_frames
            ),
            (1, 2, 3)
        );
        assert_eq!(snap.queue_depth_hwm, 9);
        stats.reset();
        assert_eq!(stats.snapshot().queries, 0);
    }

    #[test]
    fn frame_counters_accumulate_and_track_the_high_water_mark() {
        let stats = ServeStats::new(1);
        stats.record_frames(5, 0, 1);
        stats.record_frames(3, 2, 0);
        stats.record_queue_depth(4);
        stats.record_queue_depth(11);
        stats.record_queue_depth(7); // hwm keeps the max, not the latest
        let snap = stats.snapshot();
        assert_eq!(snap.accepted_frames, 8);
        assert_eq!(snap.shed_frames, 2);
        assert_eq!(snap.malformed_frames, 1);
        assert_eq!(snap.queue_depth_hwm, 11);
        stats.reset();
        let snap = stats.snapshot();
        assert_eq!(snap.accepted_frames, 0);
        assert_eq!(snap.queue_depth_hwm, 0);
    }

    #[test]
    fn pending_waits_are_their_own_histogram_and_ride_the_ingress_overlay() {
        let stats = ServeStats::new(1);
        stats.record_pending_waits([3u64, 40, 90].into_iter());
        stats.record_pending_waits(std::iter::empty());
        let ingress = stats.snapshot();
        assert_eq!(ingress.pending_wait_p50_us, 40);
        assert_eq!(ingress.pending_wait_p99_us, 90);
        // A stage span of the ingress, not a served query's latency.
        assert_eq!((ingress.queries, ingress.p99_latency_us), (0, 0));
        let mut engine_side = ServeStats::new(1).snapshot();
        engine_side.overlay_ingress(&ingress);
        assert_eq!(
            (
                engine_side.pending_wait_p50_us,
                engine_side.pending_wait_p99_us
            ),
            (40, 90)
        );
        stats.reset();
        assert_eq!(stats.snapshot().pending_wait_p99_us, 0);
    }

    #[test]
    fn record_and_snapshot_round_trip() {
        let stats = ServeStats::new(4);
        stats.record_batch(&[10, 20, 30], [0usize, 1, 1, 3].into_iter(), 600, 0, 60);
        stats.record_batch(&[40], [2usize].into_iter(), 100, 0, 40);
        let snap = stats.snapshot();
        assert_eq!(snap.queries, 4);
        assert_eq!(snap.batches, 2);
        assert_eq!(snap.mean_batch_size, 2.0);
        assert_eq!(snap.bin_probes, vec![1, 2, 1, 1]);
        assert_eq!(snap.mean_candidates, 175.0);
        // Sorted latencies [10, 20, 30, 40]: p50 idx = round(1.5) = 2 -> 30.
        assert_eq!(snap.p50_latency_us, 30);
        assert_eq!(snap.p99_latency_us, 40);
        // 4 queries in 100µs of busy time = 40k QPS.
        assert!((snap.qps - 40_000.0).abs() < 1e-6);
        stats.reset();
        let snap = stats.snapshot();
        assert_eq!(snap.queries, 0);
        assert_eq!(snap.qps, 0.0);
        assert_eq!(snap.bin_probes, vec![0, 0, 0, 0]);
    }
}
