//! Mutable-index smoke benchmark: streaming writes against serving throughput.
//!
//! Builds a round-robin partition index, then ramps an uncompacted delta through
//! 1% / 5% / 20% of the base point count (inserts routed through the partitioner
//! into membins, plus one base tombstone per ten inserts) and measures batched
//! serving QPS at every stage, the sustained insert throughput over the whole ramp,
//! and the latency of folding the final 20% delta back into clean CSR arrays.
//! Before reporting it asserts the compacted index answers the query stream exactly
//! like a fresh build over its own point set. Results land in `BENCH_mutate.json`.
//! CI runs this in release mode with `USP_NUM_THREADS=4` and
//! `USP_ASSERT_MUTATE_QPS=0.8` (serving with a 5% uncompacted delta must keep at
//! least 80% of the clean index's throughput).

use std::sync::Arc;
use std::time::Instant;

use usp_data::synthetic;
use usp_index::partitioner::RoundRobinPartitioner;
use usp_index::{PartitionIndex, SearchResult};
use usp_linalg::Distance;
use usp_serve::{QueryEngine, QueryOptions};

fn best_ms(reps: usize, mut f: impl FnMut()) -> f64 {
    let mut best = f64::INFINITY;
    for _ in 0..reps {
        let t0 = Instant::now();
        f();
        best = best.min(t0.elapsed().as_secs_f64() * 1e3);
    }
    best
}

fn main() {
    let threads = rayon::current_num_threads();
    let host_cpus = std::thread::available_parallelism()
        .map(std::num::NonZeroUsize::get)
        .unwrap_or(1);

    // Workload: 20k base points, 200 queries, 32 bins, probe 8, k = 10. The insert
    // pool is drawn from the same distribution as the base set.
    let (n, dim, n_queries, bins, probes, k) = (20_000, 32, 200, 32, 8, 10);
    let split = synthetic::sift_like(n + n_queries, dim, 23).split_queries(n_queries);
    let data = split.base.points();
    let queries = &split.queries;
    let pool = synthetic::sift_like(n / 5, dim, 29); // enough for the 20% stage
    let pool = pool.points();

    let index = Arc::new(
        PartitionIndex::build(
            RoundRobinPartitioner::new(bins),
            data,
            Distance::SquaredEuclidean,
        )
        .with_compaction_threshold(0.10),
    );
    let engine = QueryEngine::new(Arc::clone(&index));
    engine.warm_up();
    let opts = QueryOptions::new(k, probes);
    let reps = 3;

    // --- serving QPS as the uncompacted delta grows -----------------------------------
    // Stage f: `f * n` inserts plus one base tombstone per ten inserts, accumulated
    // across stages (the delta only ever grows until compaction).
    let stages = [0.0f64, 0.01, 0.05, 0.20];
    let mut qps_at = Vec::with_capacity(stages.len());
    let mut inserted = 0usize;
    let mut deleted = 0usize;
    let mut insert_secs = 0.0f64;
    for &fraction in &stages {
        let target = (fraction * n as f64) as usize;
        if target > inserted {
            let t0 = Instant::now();
            for j in inserted..target {
                engine.insert(pool.row(j)).expect("pool rows match dims");
                if j % 10 == 9 {
                    // Tombstone a live base point so the stage also exercises the
                    // live-run CSR filtering, not just membin tails.
                    engine
                        .delete(deleted * 7 % n)
                        .expect("base delete must succeed");
                    deleted += 1;
                }
            }
            insert_secs += t0.elapsed().as_secs_f64();
            inserted = target;
        }
        let ms = best_ms(reps, || {
            let out = engine.serve_batch(queries, &opts);
            assert_eq!(out.len(), n_queries);
        });
        qps_at.push((fraction, n_queries as f64 / (ms / 1e3)));
    }
    let inserts_per_sec = inserted as f64 / insert_secs;
    let stats = index.mutation_stats();
    assert_eq!(stats.inserts, inserted);
    assert!(
        index.needs_compaction(),
        "a 20% delta must trip the 10% threshold"
    );

    // --- compaction: fold the 20% delta, then sanity-check against a fresh build ------
    let t0 = Instant::now();
    let (compacted, report) = index.compacted();
    let compact_ms = t0.elapsed().as_secs_f64() * 1e3;
    assert_eq!(report.live_points, n + inserted - deleted);
    let fresh = PartitionIndex::build(
        RoundRobinPartitioner::new(bins),
        &compacted.to_matrix(),
        Distance::SquaredEuclidean,
    );
    let compacted_out: Vec<SearchResult> =
        QueryEngine::new(Arc::new(compacted)).serve_batch(queries, &opts);
    let fresh_out = QueryEngine::new(Arc::new(fresh)).serve_batch(queries, &opts);
    assert_eq!(
        compacted_out, fresh_out,
        "compacted index must answer exactly like a fresh build over its point set"
    );
    eprintln!(
        "mutate: compacted-vs-fresh equivalence verified ({} live points)",
        report.live_points
    );

    let qps_clean = qps_at[0].1;
    let qps_curve: Vec<String> = qps_at
        .iter()
        .map(|&(f, q)| format!("{{ \"delta_fraction\": {f}, \"qps\": {q:.1} }}"))
        .collect();
    let retained_at_5 = qps_at[2].1 / qps_clean;

    let json = format!(
        "{{\n  \"host_cpus\": {host_cpus},\n  \"pool_threads\": {threads},\n  \
         \"workload\": \"{n_queries} queries x {n} base x {dim}d, {bins} bins, probes={probes}, k={k}\",\n  \
         \"inserts\": {inserted},\n  \"tombstones\": {deleted},\n  \
         \"inserts_per_sec\": {inserts_per_sec:.0},\n  \
         \"qps_vs_delta\": [ {curve} ],\n  \
         \"qps_retained_at_5pct\": {retained_at_5:.3},\n  \
         \"compaction_ms\": {compact_ms:.3},\n  \"compacted_live_points\": {live},\n  \
         \"note\": \"delta stages accumulate inserts plus one base tombstone per ten inserts; \
         compacted answers asserted bit-identical to a fresh build over the final point set\"\n}}\n",
        curve = qps_curve.join(", "),
        live = report.live_points,
    );
    std::fs::write("BENCH_mutate.json", &json).expect("write BENCH_mutate.json");
    print!("{json}");
    eprintln!(
        "mutate: clean {qps_clean:.0} qps, 5% delta {:.0} qps ({retained_at_5:.2}x), \
         20% delta {:.0} qps, {inserts_per_sec:.0} inserts/s, compaction {compact_ms:.1} ms \
         on {threads} threads ({host_cpus} host cpus)",
        qps_at[2].1, qps_at[3].1,
    );

    // Regression gate (CI sets USP_ASSERT_MUTATE_QPS=0.8): a small uncompacted delta
    // must not crater serving throughput.
    if let Ok(min) = std::env::var("USP_ASSERT_MUTATE_QPS") {
        let min: f64 = min
            .trim()
            .parse()
            .expect("USP_ASSERT_MUTATE_QPS must be a number");
        assert!(
            retained_at_5 >= min,
            "serving with a 5% delta retains only {retained_at_5:.2}x of clean throughput, \
             below the required {min}x"
        );
        eprintln!("mutate qps retention assertion passed (>= {min}x)");
    }
}
