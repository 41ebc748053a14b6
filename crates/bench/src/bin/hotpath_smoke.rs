//! Hot-path smoke benchmark: cache-resident candidate scanning vs the gather baseline.
//!
//! Three measurements over the same K-means partition index:
//!
//! 1. **Kernel throughput** — one query streamed over the whole base set, scored by
//!    the scalar `Distance::eval` loop vs the blocked multi-accumulator
//!    `kernel::scan_block`, both fused into the same bounded-heap top-k. Pure
//!    single-thread compute, the ratio CI gates via `USP_ASSERT_HOTPATH_SPEEDUP`.
//! 2. **Candidate scan** — the per-query online phase as the seed implemented it
//!    (probe → gather each candidate row by id → scalar eval) vs the CSR path
//!    (`PartitionIndex::search`: contiguous bin slices through the blocked kernel).
//! 3. **End-to-end batched QPS** — `QueryEngine::serve_batch` over the query stream
//!    (batched bin ranking + pooled contiguous scans), with answers asserted
//!    bit-identical to per-query `PartitionIndex::search`.
//!
//! Results land in `BENCH_hotpath.json`. CI runs this in release mode under
//! `USP_NUM_THREADS=4` with `USP_ASSERT_HOTPATH_SPEEDUP=1.0`: the blocked kernel must
//! never lose to the scalar loop it replaced.

use std::sync::Arc;
use std::time::Instant;

use usp_baselines::KMeansPartitioner;
use usp_data::synthetic;
use usp_index::PartitionIndex;
use usp_linalg::{kernel, topk::TopK, Distance};
use usp_serve::{QueryEngine, QueryOptions};

const DIST: Distance = Distance::SquaredEuclidean;

/// Best-of-`reps` wall time of `f`, in milliseconds.
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

    let (n, dim, n_queries, bins, probes, k) = (10_000usize, 24usize, 1_000usize, 32, 8, 10);
    let split = synthetic::sift_like(n + n_queries, dim, 7).split_queries(n_queries);
    let data = split.base.points();
    let queries = &split.queries;

    let partitioner = KMeansPartitioner::fit(data, bins, 11);
    let index = Arc::new(PartitionIndex::build(partitioner, data, DIST));
    let reps = 5;

    // --- 1. kernel micro: scalar eval loop vs blocked scan over the full base set ----
    let kernel_queries = 20usize;
    let flat = data.as_slice();
    let scalar_ms = best_ms(reps, || {
        for qi in 0..kernel_queries {
            let q = queries.row(qi);
            let mut top = TopK::new(k);
            for (i, row) in flat.chunks_exact(dim).enumerate() {
                top.push(i, DIST.eval(q, row));
            }
            std::hint::black_box(top.into_sorted());
        }
    });
    let blocked_ms = best_ms(reps, || {
        for qi in 0..kernel_queries {
            let q = queries.row(qi);
            let mut top = TopK::new(k);
            kernel::scan_block(DIST, q, flat, dim, 0, &mut top);
            std::hint::black_box(top.into_sorted());
        }
    });
    let scanned_rows = (kernel_queries * n) as f64;
    let scalar_mrows = scanned_rows / (scalar_ms / 1e3) / 1e6;
    let blocked_mrows = scanned_rows / (blocked_ms / 1e3) / 1e6;
    let kernel_speedup = blocked_mrows / scalar_mrows;
    eprintln!(
        "hotpath: kernel scalar {scalar_mrows:.1} Mrows/s, blocked {blocked_mrows:.1} Mrows/s \
         ({kernel_speedup:.2}x)"
    );

    // --- 2. per-query candidate scan: id gather + scalar eval vs contiguous CSR ------
    let gather_ms = best_ms(reps, || {
        for qi in 0..n_queries {
            let q = queries.row(qi);
            // The seed's online phase: concatenate candidate ids in bin-rank order,
            // then fetch every row from the row-major dataset by id.
            let (_, candidates) = index.probe(q, probes);
            let mut top = TopK::new(k);
            for (i, &id) in candidates.iter().enumerate() {
                top.push(i, DIST.eval(q, data.row(id as usize)));
            }
            std::hint::black_box(top.into_sorted());
        }
    });
    let contiguous_ms = best_ms(reps, || {
        for qi in 0..n_queries {
            std::hint::black_box(index.search(queries.row(qi), k, probes));
        }
    });
    let gather_qps = n_queries as f64 / (gather_ms / 1e3);
    let contiguous_qps = n_queries as f64 / (contiguous_ms / 1e3);
    let scan_speedup = contiguous_qps / gather_qps;
    eprintln!(
        "hotpath: scan gather {gather_qps:.0} qps, contiguous {contiguous_qps:.0} qps \
         ({scan_speedup:.2}x, single query stream)"
    );

    // --- 3. end-to-end batched serving over the blocked path -------------------------
    let engine = QueryEngine::new(Arc::clone(&index));
    engine.warm_up();
    let opts = QueryOptions::new(k, probes);
    let mut batched_out = Vec::new();
    let batched_ms = best_ms(reps, || {
        batched_out = engine.serve_batch(queries, &opts);
    });
    for qi in 0..n_queries {
        assert_eq!(
            batched_out[qi],
            index.search(queries.row(qi), k, probes),
            "batched serving must stay bit-identical to the Searcher path (query {qi})"
        );
    }
    let batched_qps = n_queries as f64 / (batched_ms / 1e3);
    let stats = engine.stats();
    eprintln!("hotpath: batched {batched_qps:.0} qps on {threads} threads ({host_cpus} host cpus)");

    let json = format!(
        "{{\n  \"host_cpus\": {host_cpus},\n  \"pool_threads\": {threads},\n  \
         \"workload\": \"{n_queries} queries x {n} base x {dim}d, {bins} bins, probes={probes}, k={k}\",\n  \
         \"kernel\": {{ \"scalar_mrows_per_s\": {scalar_mrows:.2}, \"blocked_mrows_per_s\": {blocked_mrows:.2}, \"speedup\": {kernel_speedup:.3} }},\n  \
         \"scan\": {{ \"gather_qps\": {gather_qps:.1}, \"contiguous_qps\": {contiguous_qps:.1}, \"speedup\": {scan_speedup:.3} }},\n  \
         \"batched\": {{ \"total_ms\": {batched_ms:.3}, \"qps\": {batched_qps:.1}, \"p50_latency_us\": {p50}, \"p99_latency_us\": {p99} }},\n  \
         \"note\": \"kernel = one query against all {n} rows (single-thread); scan = sequential query stream, \
         gather replays the seed's id-gather + scalar-eval path; batched answers asserted bit-identical to \
         per-query search\"\n}}\n",
        p50 = stats.p50_latency_us,
        p99 = stats.p99_latency_us,
    );
    std::fs::write("BENCH_hotpath.json", &json).expect("write BENCH_hotpath.json");
    print!("{json}");

    // Regression gate (CI sets USP_ASSERT_HOTPATH_SPEEDUP=1.0): blocked candidate
    // scoring must not lose to the scalar loop it replaced. Single-threaded compute,
    // so no core-count precondition like the serving gates.
    if let Ok(min) = std::env::var("USP_ASSERT_HOTPATH_SPEEDUP") {
        let min: f64 = min
            .trim()
            .parse()
            .expect("USP_ASSERT_HOTPATH_SPEEDUP must be a number");
        assert!(
            kernel_speedup >= min,
            "blocked kernel speedup {kernel_speedup:.2}x is below the required {min}x"
        );
        eprintln!("hotpath kernel speedup assertion passed (>= {min}x)");
    }
}
