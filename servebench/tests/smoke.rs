//! The `--smoke` fixture through every workload, traced and untraced: an API the
//! benchmark calls cannot drift without failing here first.

use std::path::PathBuf;

use usp_bench::spec::{END_TO_END, PER_LAYER, WORKLOADS};
use usp_bench::{run, RunArgs};

fn smoke(workload: &str, trace: bool, seed: u64) -> RunArgs {
    let out_dir: PathBuf = std::env::temp_dir().join(format!(
        "usp-bench-smoke-{}-{workload}-{seed}-{}",
        std::process::id(),
        u8::from(trace)
    ));
    RunArgs {
        workload: workload.to_string(),
        seed,
        seconds: 2.0,
        trace,
        smoke: true,
        out_dir,
    }
}

#[test]
fn every_workload_runs_end_to_end_on_the_smoke_fixture() {
    for workload in WORKLOADS {
        let args = smoke(workload.name, false, 11);
        let (result, stamp) = run(&args).expect("the host gate lets the default pool through");
        let _ = std::fs::remove_dir_all(&args.out_dir);
        assert!(result.correct, "{}: {:?}", workload.name, result.problems);
        assert_eq!(result.failed, 0, "{}", workload.name);
        assert!(result.attempted > 0);
        let printed: Vec<(&str, &str)> = result.metrics.iter().map(|m| (m.name, m.unit)).collect();
        assert_eq!(printed, END_TO_END, "{}", workload.name);
        for m in &result.metrics {
            assert!(
                m.value.is_finite() && m.value > 0.0,
                "{}: {m:?}",
                workload.name
            );
        }
        assert_eq!((stamp.seed, stamp.fixture.name), (11, "smoke"));
        assert!(stamp.pool_threads <= stamp.host_cpus);
    }
}

#[test]
fn the_traced_run_prints_every_per_layer_metric() {
    // The two workloads that between them reach every layer: ADC, shards, writes, WAL.
    for workload in ["closed_pq_sharded", "mixed_rw_wal"] {
        let args = smoke(workload, true, 12);
        let (result, _) = run(&args).expect("a traced run is never refused");
        let spans = std::fs::read_dir(&args.out_dir)
            .expect("the traced run wrote its spans")
            .filter_map(Result::ok)
            .any(|e| e.file_name().to_string_lossy().starts_with("spans-"));
        let _ = std::fs::remove_dir_all(&args.out_dir);
        assert!(spans, "{workload}: no spans file");
        assert!(result.correct, "{workload}: {:?}", result.problems);
        let printed: Vec<(&str, &str)> = result.metrics.iter().map(|m| (m.name, m.unit)).collect();
        assert_eq!(printed, PER_LAYER, "{workload}");
        for m in &result.metrics {
            assert!(m.value.is_finite(), "{workload}: {m:?}");
        }
    }
}

#[test]
fn recall_repeats_exactly_for_a_seed() {
    let value = |metrics: &[usp_bench::report::Metric], name: &str| {
        metrics
            .iter()
            .find(|m| m.name == name)
            .map(|m| m.value.to_bits())
    };
    let runs: Vec<_> = (0..2)
        .map(|_| {
            let args = smoke("closed_heavy", false, 13);
            let (result, _) = run(&args).expect("run");
            let _ = std::fs::remove_dir_all(&args.out_dir);
            result
        })
        .collect();
    assert_eq!(
        value(&runs[0].metrics, "recall_at_10"),
        value(&runs[1].metrics, "recall_at_10")
    );
}
