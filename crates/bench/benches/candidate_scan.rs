//! Criterion bench: exact re-ranking of candidate sets of increasing size (the O(c·d)
//! online term of §4.5 that the balance objective of the loss is designed to control),
//! plus the two kernel-level A/Bs a scan change is judged by before it goes to
//! `servebench`: the portable blocked kernel against whatever backend this host
//! dispatches to, and an ADC pass with and without its shortlist selection.
use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use std::hint::black_box;
use usp_index::rerank::rerank;
use usp_linalg::kernel::{self, AdcTable, Backend, SegmentedScan, TileKernel};
use usp_linalg::rng;
use usp_linalg::topk::TopK;

/// Rows per scan: one `closed_heavy` query's candidate stream (`servebench`).
const ROWS: usize = 4_000;

fn bench_candidate_scan(c: &mut Criterion) {
    let split = usp_bench::bench_dataset();
    let data = split.base.points();
    let query = split.queries.row_to_vec(0);
    let mut group = c.benchmark_group("candidate_scan");
    for size in [128usize, 512, 2000] {
        let candidates: Vec<u32> = (0..size as u32).collect();
        group.bench_with_input(BenchmarkId::from_parameter(size), &candidates, |b, cand| {
            b.iter(|| black_box(rerank(data, &query, cand, 10, usp_bench::DIST)))
        });
    }
    group.finish();
}

/// The same top-10 scan twice: row by row through the portable blocked kernel, and
/// through `SegmentedScan` — what the index runs — on the host's backend (named in the
/// bench id).
///
/// The portable side is the public oracle called across the crate boundary, where it
/// is not inlined into the row loop; the same code inside `usp-linalg` (what a host
/// without AVX2 runs) measured about half its time. Compare a commit's `portable`
/// with another commit's `portable`, not with the parent's backend series. The series
/// pushes every row with no bound test in front of `push`, so when `TopK` moved from a
/// heap of three-field entries to packed keys its reading halved (104 → 56 µs at
/// `dim` 64): half of it had been the per-row heap compare, not the kernel.
fn bench_exact_scan_backends(c: &mut Criterion) {
    let mut group = c.benchmark_group("exact_scan");
    for dim in [64usize, 128] {
        let values = rng::normal_vector(&mut rng::seeded(dim as u64), (ROWS + 1) * dim);
        let (query, rows) = values.split_at(dim);
        group.bench_function(BenchmarkId::new("portable", dim), |b| {
            b.iter(|| {
                let mut top = TopK::new(10);
                for (i, row) in (0u32..).zip(rows.chunks_exact(dim)) {
                    top.push(i, kernel::squared_euclidean_blocked(query, row));
                }
                black_box(top.into_sorted())
            })
        });
        group.bench_function(BenchmarkId::new(Backend::detect().name(), dim), |b| {
            b.iter(|| {
                let mut scan = SegmentedScan::new(usp_bench::DIST, query, dim, 10);
                scan.scan_segment(rows, ROWS, 0);
                black_box(scan.into_winners())
            })
        });
    }
    group.finish();
}

/// One compressed first pass (8-byte codes, 256 centroids, shortlist of 200): the
/// table lookups alone — code by code through `adc_eval` (the portable form), then a
/// tile of 256 codes at a time on the host's backend (named in the bench id), as the
/// scan scores them — and then the lookups feeding the compressed `SegmentedScan`'s
/// selection.
fn bench_adc_pass(c: &mut Criterion) {
    let (m, n_centroids, budget) = (8usize, 256usize, 200usize);
    let table = AdcTable::Sum {
        table: rng::normal_vector(&mut rng::seeded(3), m * n_centroids),
        n_centroids,
    };
    let codes: Vec<u8> = (0..(ROWS * m) as u64)
        .map(|i| (i.wrapping_mul(0x9e37_79b9_7f4a_7c15) >> 56) as u8)
        .collect();
    let mut group = c.benchmark_group("adc_pass");
    group.bench_function("lookups_only", |b| {
        b.iter(|| {
            let sum: f32 = codes
                .chunks_exact(m)
                .map(|code| kernel::adc_eval(&table, code))
                .sum();
            black_box(sum)
        })
    });
    group.bench_function(
        BenchmarkId::new("lookups_tiled", Backend::detect().name()),
        |b| {
            let mut scores = [0.0f32; 256];
            b.iter(|| {
                let mut sum = 0.0f32;
                for tile in codes.chunks(256 * m) {
                    let scores = &mut scores[..tile.len() / m];
                    (&table).score_tile(tile, m, scores);
                    sum += scores.iter().sum::<f32>();
                }
                black_box(sum)
            })
        },
    );
    group.bench_function("lookups_and_selection", |b| {
        b.iter(|| {
            let mut scan = SegmentedScan::adc(&table, m, budget);
            scan.scan_segment(&codes, ROWS, 0);
            black_box(scan.into_kept())
        })
    });
    group.finish();
}

criterion_group! {
    name = benches;
    config = Criterion::default().sample_size(30);
    targets = bench_candidate_scan, bench_exact_scan_backends, bench_adc_pass
}
criterion_main!(benches);
