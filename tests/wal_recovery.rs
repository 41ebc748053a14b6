//! Crash-recovery harness for the mutable index's write-ahead log.
//!
//! The durability contract under test: with `SyncPolicy::EveryRecord`, every
//! mutation the index *acked* (returned `Ok` for) is on storage before the ack,
//! so after a crash at **any byte offset** into the log,
//! [`PartitionIndex::recover`] rebuilds a state bit-identical to replaying
//! exactly the acked prefix — no acked op lost, no phantom op invented. The
//! headline proptest drives a random workload against a WAL-attached index,
//! snapshots the log image, cuts it at an arbitrary byte offset (the crash),
//! recovers into a fresh base, and compares search answers bit-for-bit against
//! a reference built by replaying the parsed prefix through the ordinary
//! mutation API. It then round-trips: compact (checkpoint + truncate), mutate
//! again, crash again, recover again — this time on top of the compacted base.
//! Everything runs in exact *and* compressed scoring mode, under worker pools
//! of 1 and 4 threads (CI runs the file under `USP_NUM_THREADS=1` and `=4`).
//!
//! The deterministic tests pin the fault-model edges from the module docs in
//! `usp-index/src/wal.rs`: a torn tail is tolerated (truncate + count), a
//! mid-log checksum mismatch is a loud [`WalError::Corrupt`], a device-full
//! torn write refuses the ack and recovery resumes past it, and a failed sync
//! poisons the log (fsyncgate) without mutating the index — cleared only by
//! the checkpoint protocol. The engine-path test pins that serving acks carry
//! durability and that WAL counters surface through `StatsSnapshot`.

use std::sync::Arc;

use neural_partitioner::serve::{QueryEngine, QueryOptions};
use proptest::prelude::*;
use rayon::with_num_threads;
use usp_index::partitioner::RoundRobinPartitioner;
use usp_index::wal::{parse_log, MAX_RECORD_PAYLOAD};
use usp_index::{
    FaultPlan, MemStorage, MutationError, PartitionIndex, Scoring, SyncPolicy, Wal, WalError,
    WalRecord,
};
use usp_linalg::{rng as lrng, Distance, Matrix};
use usp_quant::{ProductQuantizer, ProductQuantizerConfig};

const DIST: Distance = Distance::SquaredEuclidean;
/// Re-rank budget shared by every compressed index in this suite, so the
/// recovered index and its reference agree on shortlist semantics.
const RERANK_BUDGET: usize = 16;
/// Deletes are skipped once the live set would drop below this floor, keeping
/// top-k searches meaningful for every generated workload.
const MIN_LIVE: usize = 4;

fn normal_points(n: usize, dim: usize, seed: u64) -> Matrix {
    lrng::normal_matrix(&mut lrng::seeded(seed), n, dim, 1.0)
}

/// One step of a streaming workload. Unlike the mutation-equivalence harness
/// there is no `Compact` op: compaction is exercised explicitly as the
/// checkpoint round trip, because it truncates the log under test.
#[derive(Clone, Debug)]
enum Op {
    Insert(u64),
    Delete(u64),
}

/// Decodes proptest-generated `(selector, seed)` pairs: three inserts to one
/// delete, so logs grow and deletes still hit both CSR and membin slots.
fn decode_ops(raw: &[(u8, u64)]) -> Vec<Op> {
    raw.iter()
        .map(|&(sel, seed)| match sel % 4 {
            0..=2 => Op::Insert(seed),
            _ => Op::Delete(seed),
        })
        .collect()
}

/// A fresh clean base index over `base`, optionally in compressed mode.
fn build_base(
    bins: usize,
    base: &Matrix,
    pq: Option<&Arc<ProductQuantizer>>,
) -> PartitionIndex<RoundRobinPartitioner> {
    let idx = PartitionIndex::build(RoundRobinPartitioner::new(bins), base, DIST);
    match pq {
        Some(pq) => idx.with_scoring(Scoring::compressed(
            Arc::clone(pq) as Arc<dyn usp_index::CodeQuantizer>,
            RERANK_BUDGET,
        )),
        None => idx,
    }
}

/// Drives `ops` through the mutation API, tracking live ids so every delete is
/// valid (the WAL never logs a refused op). Deterministic in (`ops`, `salt`),
/// so the same workload can be replayed in a second round with distinct points.
/// Returns the number of ops actually applied (deletes under the floor skip).
fn apply_ops(
    idx: &PartitionIndex<RoundRobinPartitioner>,
    live: &mut Vec<usize>,
    ops: &[Op],
    dim: usize,
    salt: u64,
) -> usize {
    let mut applied = 0;
    for (step, op) in ops.iter().enumerate() {
        match *op {
            Op::Insert(seed) => {
                // Mix step and salt in so repeated seeds still yield distinct
                // points (distance ties would weaken bit-identity checks).
                let mut rng = lrng::seeded(seed ^ ((step as u64 + salt) << 32) ^ 0x5eed);
                let p: Vec<f32> = (0..dim).map(|_| lrng::standard_normal(&mut rng)).collect();
                let id = idx.try_insert(&p).expect("logged insert must be acked");
                live.push(id);
                applied += 1;
            }
            Op::Delete(sel) => {
                if live.len() <= MIN_LIVE {
                    continue;
                }
                let at = (sel as usize) % live.len();
                let id = live.remove(at);
                idx.try_delete(id).expect("live id must be deletable");
                applied += 1;
            }
        }
    }
    applied
}

/// The reference side: replays a parsed record stream through the ordinary
/// mutation API. Checkpoint records carry no delta and are skipped.
fn replay(idx: &PartitionIndex<RoundRobinPartitioner>, records: &[WalRecord]) {
    for rec in records {
        match rec {
            WalRecord::Insert { row } => {
                idx.try_insert(row).expect("reference insert");
            }
            WalRecord::Delete { id } => {
                idx.try_delete(*id as usize).expect("reference delete");
            }
            WalRecord::CompactionCheckpoint { .. } => {}
        }
    }
}

/// Bit-identical answers on every query — ids, distances, and order.
fn assert_bit_identical(
    a: &PartitionIndex<RoundRobinPartitioner>,
    b: &PartitionIndex<RoundRobinPartitioner>,
    queries: &Matrix,
    k: usize,
    probes: usize,
    ctx: &str,
) {
    for qi in 0..queries.rows() {
        assert_eq!(
            a.search(queries.row(qi), k, probes),
            b.search(queries.row(qi), k, probes),
            "{ctx}: query {qi} diverged from the acked-prefix reference"
        );
    }
}

/// One full crash-cut scenario: workload → crash at `cut_sel` → recover →
/// compare against the acked prefix → checkpoint round trip → second crash at
/// `cut_sel2` → recover on the compacted base → compare again.
fn check_crash_cut(
    base: &Matrix,
    queries: &Matrix,
    bins: usize,
    ops: &[Op],
    cut_sel: u64,
    cut_sel2: u64,
    pq: Option<&Arc<ProductQuantizer>>,
) {
    let dim = base.cols();

    // --- run the workload against a WAL-attached index, then "crash" -------------
    let storage = MemStorage::new();
    let idx = build_base(bins, base, pq)
        .with_wal(Wal::new(Box::new(storage.clone()), SyncPolicy::EveryRecord));
    let mut live: Vec<usize> = (0..base.rows()).collect();
    let applied = apply_ops(&idx, &mut live, ops, dim, 0);
    let image = storage.contents();
    // EveryRecord means the full image holds exactly one record per acked op.
    assert_eq!(
        parse_log(&image)
            .expect("uncut log parses clean")
            .records
            .len(),
        applied,
        "every acked op must be on storage before the ack"
    );
    drop(idx); // the crash: every volatile structure is gone, only `image` survives

    // --- cut at an arbitrary byte offset and recover ------------------------------
    let cut = (cut_sel as usize) % (image.len() + 1);
    let cut_image = image[..cut].to_vec();
    let acked =
        parse_log(&cut_image).expect("a prefix of a valid log is torn at worst, never corrupt");

    let cut_storage = MemStorage::from_bytes(cut_image);
    let (recovered, report) = PartitionIndex::recover(
        build_base(bins, base, pq),
        Wal::new(Box::new(cut_storage.clone()), SyncPolicy::EveryRecord),
    )
    .expect("recovery tolerates a torn tail");
    assert_eq!(
        report.replayed_inserts + report.replayed_deletes,
        acked.records.len() as u64,
        "recovery must replay exactly the complete records"
    );
    assert_eq!(report.torn_tail_bytes, acked.torn_bytes);
    assert_eq!(report.epoch, 0, "a never-compacted log opens at epoch 0");
    assert_eq!(
        cut_storage.contents().len() as u64,
        acked.valid_len,
        "recovery truncates the torn tail on the device"
    );

    // --- the reference: replay exactly the acked prefix ---------------------------
    let reference = build_base(bins, base, pq);
    replay(&reference, &acked.records);
    assert_bit_identical(&recovered, &reference, queries, 5, 3, "post-recovery");

    // --- round trip: checkpoint compaction, more ops, second crash, recover -------
    let (recovered, _) = recovered
        .compacted_with_checkpoint()
        .expect("checkpoint compaction on a healthy log");
    assert_eq!(
        recovered.wal_stats().expect("wal stays attached").epoch,
        1,
        "compaction advances the checkpoint epoch"
    );
    // The second recovery's clean base: the compacted point set with its stored
    // assignments (compaction is pinned bit-identical to this rebuild by the
    // mutation-equivalence suite).
    let compacted_data = recovered.to_matrix();
    let compacted_assign = recovered.assignments().to_vec();
    let rebuild = || {
        let idx = PartitionIndex::from_assignments(
            RoundRobinPartitioner::new(bins),
            &compacted_data,
            compacted_assign.clone(),
            DIST,
        );
        match pq {
            Some(pq) => idx.with_scoring(Scoring::compressed(
                Arc::clone(pq) as Arc<dyn usp_index::CodeQuantizer>,
                RERANK_BUDGET,
            )),
            None => idx,
        }
    };

    let mut live2: Vec<usize> = (0..compacted_data.rows()).collect();
    apply_ops(&recovered, &mut live2, ops, dim, 1000);
    let image2 = cut_storage.contents();
    drop(recovered);

    let cut2 = (cut_sel2 as usize) % (image2.len() + 1);
    let cut2_image = image2[..cut2].to_vec();
    let acked2 = parse_log(&cut2_image).expect("prefix cut of the post-checkpoint log");

    let (recovered2, report2) = PartitionIndex::recover(
        rebuild(),
        Wal::new(
            Box::new(MemStorage::from_bytes(cut2_image)),
            SyncPolicy::EveryRecord,
        ),
    )
    .expect("second recovery");
    // The checkpoint record leads the replaced log; it survives iff the cut
    // reaches past it, and then the recovered epoch picks it up.
    let expect_epoch = match acked2.records.first() {
        Some(WalRecord::CompactionCheckpoint { .. }) => 1,
        _ => 0,
    };
    assert_eq!(report2.epoch, expect_epoch);

    let reference2 = rebuild();
    replay(&reference2, &acked2.records);
    assert_bit_identical(
        &recovered2,
        &reference2,
        queries,
        5,
        3,
        "post-roundtrip recovery",
    );
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(8))]

    /// The headline property: for ANY workload and ANY crash offset, recovery
    /// answers bit-identically to replaying exactly the acked prefix — in exact
    /// and compressed mode, under 1- and 4-thread pools, including a
    /// recover → compact (checkpoint) → mutate → crash → recover round trip.
    #[test]
    fn recovery_equals_acked_prefix_at_any_cut(
        seed in 0u64..1000,
        base_n in 10usize..24,
        dim in 2usize..5,
        bins in 2usize..6,
        raw_ops in prop::collection::vec((0u8..4, 0u64..1_000_000u64), 4..14),
        cuts in 0u64..u64::MAX,
    ) {
        // Two independent crash offsets packed into one value (the vendored
        // proptest shim caps tuple strategies at six parameters).
        let (cut_sel, cut_sel2) = (cuts & 0xffff_ffff, cuts >> 32);
        let ops = decode_ops(&raw_ops);
        let base = normal_points(base_n, dim, seed);
        let queries = normal_points(4, dim, seed.wrapping_add(101));
        // One quantizer, fit once, shared by every index in the case: recovery
        // and compaction must re-encode through these exact codebooks.
        let pq = with_num_threads(1, || {
            Arc::new(ProductQuantizer::fit(&base, &ProductQuantizerConfig::standard(2, 8)))
        });
        for threads in [1usize, 4] {
            with_num_threads(threads, || {
                for compressed in [false, true] {
                    let pqo = if compressed { Some(&pq) } else { None };
                    check_crash_cut(&base, &queries, bins, &ops, cut_sel, cut_sel2, pqo);
                }
            });
        }
    }
}

/// A torn tail (crash mid-append) is tolerated and truncated; the same bytes
/// flipped mid-log are a loud `Corrupt`, never a silent truncation.
#[test]
fn torn_tail_is_tolerated_but_mid_log_corruption_is_fatal() {
    let base = normal_points(12, 3, 7);
    let storage = MemStorage::new();
    let idx = build_base(3, &base, None)
        .with_wal(Wal::new(Box::new(storage.clone()), SyncPolicy::EveryRecord));
    let extra = normal_points(3, 3, 8);
    for i in 0..3 {
        idx.try_insert(extra.row(i)).expect("insert");
    }
    idx.try_delete(1).expect("delete base point");
    let image = storage.contents();

    // Cut strictly inside the final record: recovery truncates and counts it.
    let torn = image[..image.len() - 3].to_vec();
    let (rec, report) = PartitionIndex::recover(
        build_base(3, &base, None),
        Wal::new(
            Box::new(MemStorage::from_bytes(torn)),
            SyncPolicy::EveryRecord,
        ),
    )
    .expect("torn tail is not corruption");
    assert_eq!(
        (report.replayed_inserts, report.replayed_deletes),
        (3, 0),
        "the torn delete must not replay"
    );
    assert!(report.torn_tail_bytes > 0);
    assert_eq!(rec.mutation_stats().inserts, 3);

    // Flip one payload byte of the FIRST record: same log length, but the
    // damage is mid-log, so recovery must refuse loudly.
    let mut bad = image;
    bad[10] ^= 0xff;
    let err = PartitionIndex::recover(
        build_base(3, &base, None),
        Wal::new(
            Box::new(MemStorage::from_bytes(bad)),
            SyncPolicy::EveryRecord,
        ),
    )
    .map(|_| ())
    .expect_err("mid-log corruption is fatal");
    assert!(
        matches!(err, WalError::Corrupt { offset: 0, .. }),
        "expected Corrupt at record offset 0, got {err:?}"
    );
}

/// Device-full torn write: the op that crossed the byte budget is refused (no
/// ack), the tail is torn, and recovery resumes with every acked op intact.
#[test]
fn device_full_tears_the_tail_and_recovery_keeps_every_acked_op() {
    let base = normal_points(10, 2, 11);
    let storage = MemStorage::new();
    // An insert record at dim 2 is 8 (header) + 1 (kind) + 4 (dim) + 8 (floats)
    // = 21 framed bytes: the first fits a 30-byte device, the second tears.
    storage.set_plan(FaultPlan {
        fail_after_bytes: Some(30),
        ..FaultPlan::default()
    });
    let idx = build_base(2, &base, None)
        .with_wal(Wal::new(Box::new(storage.clone()), SyncPolicy::EveryRecord));
    idx.try_insert(&[0.25, -0.5])
        .expect("fits under the byte budget");
    let err = idx
        .try_insert(&[0.75, 0.5])
        .expect_err("the append that crosses the budget must refuse the ack");
    assert!(matches!(err, MutationError::Wal(_)), "got {err:?}");
    let image = storage.contents();
    assert_eq!(image.len(), 30, "21 acked bytes + 9 torn bytes");

    let (rec, report) = PartitionIndex::recover(
        build_base(2, &base, None),
        Wal::new(
            Box::new(MemStorage::from_bytes(image)),
            SyncPolicy::EveryRecord,
        ),
    )
    .expect("recovery resumes past the torn write");
    assert_eq!(report.replayed_inserts, 1, "the acked insert survived");
    assert_eq!(report.torn_tail_bytes, 9);
    assert_eq!(rec.mutation_stats().inserts, 1);
}

/// An index whose insert record (`5 + 4·dims` bytes) cannot fit in one log record is
/// refused when the log is attached or replayed. Before, its inserts were acked and
/// then recovery rejected the whole log as corrupt.
#[test]
fn an_index_too_wide_for_a_log_record_is_refused_up_front() {
    let wide = |dims: usize| {
        let points = Matrix::from_vec(2, dims, vec![0.25; 2 * dims]);
        PartitionIndex::build(RoundRobinPartitioner::new(1), &points, DIST)
    };
    let log = |storage: MemStorage| Wal::new(Box::new(storage), SyncPolicy::EveryRecord);
    // The widest row that fits: 5 + 4·262 142 = 1 048 573 bytes.
    let dims = (MAX_RECORD_PAYLOAD as usize - 5) / 4;
    let storage = MemStorage::new();
    let idx = wide(dims).with_wal(log(storage.clone()));
    idx.try_insert(&vec![0.5; dims])
        .expect("the widest row is acked");
    let (_, report) =
        PartitionIndex::recover(wide(dims), log(storage)).expect("and what was acked recovers");
    assert_eq!(report.replayed_inserts, 1);

    // One dim more is refused up front, by the index and by the log alike.
    let refused = |f: &mut dyn FnMut()| {
        let err = std::panic::catch_unwind(std::panic::AssertUnwindSafe(f))
            .expect_err("a record recovery would reject must be refused");
        err.downcast_ref::<String>().cloned().unwrap_or_default()
    };
    let msg = refused(&mut || drop(wide(dims + 1).with_wal(log(MemStorage::new()))));
    assert!(msg.contains("1048577 bytes"), "got: {msg}");
    let msg = refused(&mut || {
        drop(PartitionIndex::recover(
            wide(dims + 1),
            log(MemStorage::new()),
        ))
    });
    assert!(msg.contains("1048577 bytes"), "got: {msg}");
    let mut wal = log(MemStorage::new());
    let row = vec![0.5; dims + 1];
    refused(&mut || drop(wal.append(&WalRecord::Insert { row: row.clone() })));
}

/// A failed sync refuses the ack, leaves the index unmutated, and poisons the
/// log (fsyncgate: the storage tail is suspect) until the checkpoint protocol
/// replaces it with a fresh verified image.
#[test]
fn sync_failure_never_acks_and_poisons_until_checkpoint() {
    let base = normal_points(10, 2, 13);
    let storage = MemStorage::new();
    let idx = build_base(2, &base, None)
        .with_wal(Wal::new(Box::new(storage.clone()), SyncPolicy::EveryRecord));
    let q = [0.1f32, 0.2];
    let pre = idx.search(&q, 3, 2);

    storage.set_plan(FaultPlan {
        fail_syncs: 1,
        ..FaultPlan::default()
    });
    let err = idx
        .try_insert(&[0.5, 0.5])
        .expect_err("unsynced append never acks");
    assert!(matches!(err, MutationError::Wal(_)), "got {err:?}");
    assert!(
        !idx.is_mutated(),
        "a refused insert must not mutate the index"
    );
    assert_eq!(
        idx.search(&q, 3, 2),
        pre,
        "answers unchanged after the refusal"
    );

    // Sticky poison: the device has recovered, but the log's tail is suspect,
    // so the next append is refused without touching storage.
    assert_eq!(
        idx.try_insert(&[0.5, 0.5]),
        Err(MutationError::Wal(WalError::Poisoned))
    );
    let stats = idx.wal_stats().expect("wal attached");
    assert_eq!(stats.sync_errors, 1);

    // The checkpoint protocol writes a whole new verified image, which is the
    // documented way out of the poisoned state.
    let (idx, _) = idx
        .compacted_with_checkpoint()
        .expect("checkpoint replaces the log");
    idx.try_insert(&[0.5, 0.5])
        .expect("appends resume after the checkpoint");
    assert_eq!(idx.mutation_stats().inserts, 1);
}

/// Serving acks carry durability: the engine write path refuses mutations the
/// log could not persist, and WAL/recovery counters surface in `StatsSnapshot`.
#[test]
fn engine_acks_carry_durability_and_stats_surface_wal_counters() {
    let base = normal_points(12, 2, 17);
    let storage = MemStorage::new();
    let idx = Arc::new(
        build_base(3, &base, None)
            .with_wal(Wal::new(Box::new(storage.clone()), SyncPolicy::EveryRecord)),
    );
    let engine = QueryEngine::new(Arc::clone(&idx));
    engine.insert(&[0.3, 0.4]).expect("durable insert acks");
    assert_eq!(engine.delete(2), Ok(()));
    let snap = engine.stats();
    assert_eq!((snap.inserts, snap.deletes), (1, 1));
    assert_eq!(snap.wal_appends, 2, "one record per acked mutation");
    assert!(snap.wal_bytes > 0);
    assert_eq!(snap.wal_sync_errors, 0);

    // A sync failure must become an error reply, not a silent ack, and the
    // refused op must not count as served.
    storage.set_plan(FaultPlan {
        fail_syncs: 1,
        ..FaultPlan::default()
    });
    let err = engine
        .insert(&[0.6, 0.7])
        .expect_err("failed append refuses the ack");
    assert!(matches!(err, MutationError::Wal(_)), "got {err:?}");
    let snap = engine.stats();
    assert_eq!(snap.inserts, 1, "the refused insert is not counted");
    assert_eq!(
        snap.wal_sync_errors, 1,
        "the failure is visible in serving stats"
    );

    // Recovery counters ride the same snapshot: recover from this log image
    // and serve from the recovered index.
    let image = storage.contents();
    let acked = parse_log(&image).expect("log parses clean");
    let (recovered, _) = PartitionIndex::recover(
        build_base(3, &base, None),
        Wal::new(
            Box::new(MemStorage::from_bytes(image)),
            SyncPolicy::EveryRecord,
        ),
    )
    .expect("recovery");
    let engine = QueryEngine::new(Arc::new(recovered));
    let snap = engine.stats();
    assert_eq!(snap.wal_replayed_records, acked.records.len() as u64);

    // The sharded engine overlays the same counters and keeps serving the
    // recovered state bit-identically to the unsharded path.
    let recovered = Arc::new(
        PartitionIndex::recover(
            build_base(3, &base, None),
            Wal::new(
                Box::new(MemStorage::from_bytes(storage.contents())),
                SyncPolicy::EveryRecord,
            ),
        )
        .expect("recovery")
        .0,
    );
    let sharded = QueryEngine::with_shards(Arc::clone(&recovered), 2);
    let queries = normal_points(4, 2, 19);
    let opts = QueryOptions::new(3, 2);
    assert_eq!(
        sharded.serve_batch(&queries, &opts),
        QueryEngine::new(recovered).serve_batch(&queries, &opts),
        "sharded serving of a recovered index matches the unsharded path"
    );
    assert_eq!(
        sharded.stats().wal_replayed_records,
        acked.records.len() as u64
    );
}
