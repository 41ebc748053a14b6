//! Compressed-domain scoring smoke benchmark: PQ/ADC first pass vs exact scanning.
//!
//! Three measurements over the same K-means partition index (same scale as
//! `hotpath_smoke`, but at the higher dimensionality where a compressed first pass
//! earns its keep — 64d vectors squeezed to 8-byte PQ codes):
//!
//! 1. **First-pass throughput** — one query streamed over the whole base set,
//!    scored by the exact blocked kernel (`kernel::scan_block`) vs the blocked ADC
//!    lookup kernel (`kernel::AdcScan`) over the PQ codes. Pure single-thread
//!    compute; the ratio CI gates via `USP_ASSERT_QUANT_SPEEDUP`.
//! 2. **End-to-end batched QPS at matched candidate coverage** — `serve_batch`
//!    over an exact-mode index with no budget (every routed candidate scored by
//!    the exact kernel) vs the compressed index (every routed candidate scored by
//!    ADC, the best `B` re-ranked exactly). Both see the identical candidate
//!    stream, so the ratio is the end-to-end payoff of moving the first pass into
//!    the compressed domain.
//! 3. **Recall@10 vs ground truth** — the quality story at a *matched exact-eval
//!    budget*: exact mode with `rerank_budget = B` truncates the stream to a
//!    prefix of B, while compressed mode spends the same B exact evaluations on
//!    the ADC-best shortlist. Also reports the compressed pass's survivor ratio
//!    from the serving stats. CI floors the compressed recall via
//!    `USP_ASSERT_QUANT_RECALL`.
//!
//! Results land in `BENCH_quant.json`. CI runs this in release mode under
//! `USP_NUM_THREADS=4` with `USP_ASSERT_QUANT_SPEEDUP=1.5` and
//! `USP_ASSERT_QUANT_RECALL=0.85`.

use std::collections::HashSet;
use std::sync::Arc;
use std::time::Instant;

use usp_baselines::KMeansPartitioner;
use usp_data::{exact_knn, synthetic};
use usp_index::{PartitionIndex, Scoring};
use usp_linalg::{kernel, topk, topk::TopK, Distance};
use usp_quant::{ProductQuantizer, ProductQuantizerConfig};
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

fn recall_at_k(results: &[Vec<usize>], truth: &[Vec<usize>], k: usize) -> f64 {
    let mut recall = 0.0;
    for (got, want) in results.iter().zip(truth) {
        let t: HashSet<usize> = want.iter().copied().collect();
        recall += got.iter().filter(|i| t.contains(i)).count() as f64 / k as f64;
    }
    recall / results.len() as f64
}

fn main() {
    let threads = rayon::current_num_threads();
    let host_cpus = std::thread::available_parallelism()
        .map(std::num::NonZeroUsize::get)
        .unwrap_or(1);

    let (n, dim, n_queries, bins, probes, k) = (20_000usize, 64usize, 300usize, 32, 8, 10);
    let (m, n_centroids, budget) = (8usize, 256usize, 200usize);
    let split = synthetic::sift_like(n + n_queries, dim, 7).split_queries(n_queries);
    let data = split.base.points();
    let queries = &split.queries;
    let truth = exact_knn(data, queries, k, DIST);
    let reps = 5;

    let pq = ProductQuantizer::fit(data, &ProductQuantizerConfig::standard(m, n_centroids));
    let codes = pq.encode_all(data);

    // --- 1. first-pass micro: exact blocked scan vs blocked ADC scan -----------------
    let kernel_queries = 20usize;
    let flat = data.as_slice();
    let exact_ms = best_ms(reps, || {
        for qi in 0..kernel_queries {
            let q = queries.row(qi);
            let mut top = TopK::new(k);
            kernel::scan_block(DIST, q, flat, dim, 0, &mut top);
            std::hint::black_box(top.into_sorted());
        }
    });
    // `AdcScan` hands back a set in stream order: the kept positions, and each
    // winner's distance bits, must be those of scoring every code and then selecting.
    {
        let table = pq.adc_table(DIST, queries.row(0));
        let code = |i: usize| &codes[i * m..(i + 1) * m];
        let mut scan = kernel::AdcScan::new(&table, m, budget);
        scan.scan_segment(&codes, n, 0);
        let kept = scan.into_winners();
        let mut want = topk::smallest_k_by(n, budget, |i| kernel::adc_eval(&table, code(i)));
        want.sort_unstable();
        assert_eq!(kept.iter().map(|w| w.2).collect::<Vec<_>>(), want);
        for &(_, _, pos, dist) in &kept {
            assert_eq!(
                dist.to_bits(),
                kernel::adc_eval(&table, code(pos)).to_bits()
            );
        }
    }
    let adc_ms = best_ms(reps, || {
        for qi in 0..kernel_queries {
            let table = pq.adc_table(DIST, queries.row(qi));
            let mut scan = kernel::AdcScan::new(&table, m, k);
            scan.scan_segment(&codes, n, 0);
            std::hint::black_box(scan.into_winners());
        }
    });
    let scanned_rows = (kernel_queries * n) as f64;
    let exact_mrows = scanned_rows / (exact_ms / 1e3) / 1e6;
    let adc_mrows = scanned_rows / (adc_ms / 1e3) / 1e6;
    let kernel_speedup = adc_mrows / exact_mrows;
    eprintln!(
        "quant: first pass exact {exact_mrows:.1} Mrows/s, adc {adc_mrows:.1} Mrows/s \
         ({kernel_speedup:.2}x, table build included)"
    );

    // --- 2. end-to-end batched serving at matched candidate coverage -----------------
    let build_index = || {
        let partitioner = KMeansPartitioner::fit(data, bins, 11);
        PartitionIndex::build(partitioner, data, DIST)
    };
    let exact_index = Arc::new(build_index());
    let compressed_index =
        Arc::new(build_index().with_scoring(Scoring::compressed(Arc::new(pq), budget)));

    // Throughput: both engines score the identical candidate stream; the exact engine
    // runs the float kernel over all of it, the compressed engine runs ADC over all
    // of it and the exact kernel over the best `budget` only.
    let full_opts = QueryOptions::new(k, probes);
    let budget_opts = QueryOptions::new(k, probes).with_rerank_budget(budget);
    let exact_engine = QueryEngine::new(Arc::clone(&exact_index));
    exact_engine.warm_up();
    let mut exact_full_out = Vec::new();
    let exact_full_ms = best_ms(reps, || {
        exact_full_out = exact_engine.serve_batch(queries, &full_opts);
    });
    let compressed_engine = QueryEngine::new(Arc::clone(&compressed_index));
    compressed_engine.warm_up();
    compressed_engine.reset_stats();
    let mut compressed_out = Vec::new();
    let compressed_batch_ms = best_ms(reps, || {
        compressed_out = compressed_engine.serve_batch(queries, &budget_opts);
    });
    let reference = compressed_index.search_batch(queries, k, probes);
    for (qi, r) in compressed_out.iter().enumerate() {
        assert_eq!(
            r, &reference[qi],
            "batched compressed serving must stay bit-identical to the Searcher path \
             (query {qi})"
        );
        assert_eq!(
            r.candidates_scanned, budget,
            "compressed mode spends exactly the budgeted exact evaluations"
        );
        assert_eq!(
            r.compressed_scanned, exact_full_out[qi].candidates_scanned,
            "matched coverage: the ADC pass sees the stream the exact engine scans"
        );
    }
    let exact_full_qps = n_queries as f64 / (exact_full_ms / 1e3);
    let compressed_qps = n_queries as f64 / (compressed_batch_ms / 1e3);
    let serve_speedup = compressed_qps / exact_full_qps;
    let stats = compressed_engine.stats();
    eprintln!(
        "quant: batched exact-full {exact_full_qps:.0} qps, compressed {compressed_qps:.0} qps \
         ({serve_speedup:.2}x at matched coverage, survivor ratio {:.4})",
        stats.survivor_ratio
    );

    // --- 3. recall at a matched exact-eval budget ------------------------------------
    let mut exact_budget_out = Vec::new();
    let exact_budget_ms = best_ms(reps, || {
        exact_budget_out = exact_engine.serve_batch(queries, &budget_opts);
    });
    let exact_budget_qps = n_queries as f64 / (exact_budget_ms / 1e3);
    let exact_full_ids: Vec<Vec<usize>> = exact_full_out.iter().map(|r| r.ids.clone()).collect();
    let exact_budget_ids: Vec<Vec<usize>> =
        exact_budget_out.iter().map(|r| r.ids.clone()).collect();
    let compressed_ids: Vec<Vec<usize>> = compressed_out.iter().map(|r| r.ids.clone()).collect();
    let exact_full_recall = recall_at_k(&exact_full_ids, &truth, k);
    let exact_budget_recall = recall_at_k(&exact_budget_ids, &truth, k);
    let compressed_recall = recall_at_k(&compressed_ids, &truth, k);
    eprintln!(
        "quant: recall@{k} exact-full {exact_full_recall:.4}, exact-budget {exact_budget_recall:.4}, \
         compressed {compressed_recall:.4} (both budgeted modes spend {budget} exact evals)"
    );

    let json = format!(
        "{{\n  \"host_cpus\": {host_cpus},\n  \"pool_threads\": {threads},\n  \
         \"workload\": \"{n_queries} queries x {n} base x {dim}d, {bins} bins, probes={probes}, k={k}, \
         pq m={m} k*={n_centroids}, budget={budget}\",\n  \
         \"first_pass\": {{ \"exact_mrows_per_s\": {exact_mrows:.2}, \"adc_mrows_per_s\": {adc_mrows:.2}, \"speedup\": {kernel_speedup:.3} }},\n  \
         \"batched\": {{ \"exact_full_qps\": {exact_full_qps:.1}, \"exact_budget_qps\": {exact_budget_qps:.1}, \
         \"compressed_qps\": {compressed_qps:.1}, \"speedup_vs_exact_full\": {serve_speedup:.3} }},\n  \
         \"quality\": {{ \"exact_full_recall_at_10\": {exact_full_recall:.4}, \"exact_budget_recall_at_10\": {exact_budget_recall:.4}, \
         \"compressed_recall_at_10\": {compressed_recall:.4}, \
         \"survivor_ratio\": {survivor:.5}, \"mean_compressed_candidates\": {mean_compressed:.1} }},\n  \
         \"note\": \"first pass = one query against all {n} rows (single-thread, ADC includes per-query table build); \
         batched speedup compares matched candidate coverage: exact-full scores the whole routed stream with the \
         float kernel, compressed scores it with ADC and re-ranks the best {budget} exactly; exact-budget truncates \
         the stream to the same {budget} exact evals the compressed mode spends, isolating the recall payoff; \
         compressed answers asserted bit-identical to per-query search\"\n}}\n",
        survivor = stats.survivor_ratio,
        mean_compressed = stats.mean_compressed_candidates,
    );
    std::fs::write("BENCH_quant.json", &json).expect("write BENCH_quant.json");
    print!("{json}");

    // Regression gates (CI sets USP_ASSERT_QUANT_SPEEDUP=1.5 and
    // USP_ASSERT_QUANT_RECALL=0.85): the ADC first pass must beat the exact kernel
    // it bypasses by a wide margin, without giving up recall.
    if let Ok(min) = std::env::var("USP_ASSERT_QUANT_SPEEDUP") {
        let min: f64 = min
            .trim()
            .parse()
            .expect("USP_ASSERT_QUANT_SPEEDUP must be a number");
        assert!(
            kernel_speedup >= min,
            "ADC first-pass speedup {kernel_speedup:.2}x is below the required {min}x"
        );
        eprintln!("quant first-pass speedup assertion passed (>= {min}x)");
    }
    if let Ok(min) = std::env::var("USP_ASSERT_QUANT_RECALL") {
        let min: f64 = min
            .trim()
            .parse()
            .expect("USP_ASSERT_QUANT_RECALL must be a number");
        assert!(
            compressed_recall >= min,
            "compressed recall@{k} {compressed_recall:.4} is below the required {min}"
        );
        eprintln!("quant recall assertion passed (>= {min})");
    }
}
