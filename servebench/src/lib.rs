//! The served-index benchmark: the trained USP router behind the TCP front door.
//!
//! One command per (workload, seed): train the router, build the index, serve it
//! in-process behind `IngressHandle` over loopback TCP, drive it from one client thread,
//! check every answer and print every metric. `--trace 1` instead times the calls into
//! each layer from outside. See `README.md` beside this package.

pub mod client;
pub mod fixture;
pub mod layers;
pub mod report;
pub mod router;
pub mod spec;
pub mod stats;
pub mod trace;
pub mod workloads;

use std::path::{Path, PathBuf};

use report::{append_record, compare_files, git_rev, host_gate, result_line, RunResult, Stamp};
use workloads::RunConfig;

const USAGE: &str = "usage:
  usp_benchmark --workload <name> --seed <n> --seconds <s> --trace <0|1> [--smoke] [--out-dir <dir>]
  usp_benchmark compare <A.jsonl> <B.jsonl> [--bounds <BENCHMARK.json>]
workloads: open_light, closed_heavy, closed_pq_sharded, mixed_rw_wal";

/// Parsed `--key value` arguments of a run.
#[derive(Debug, Clone, PartialEq)]
pub struct RunArgs {
    pub workload: String,
    pub seed: u64,
    pub seconds: f64,
    pub trace: bool,
    pub smoke: bool,
    pub out_dir: PathBuf,
}

pub fn parse_run_args(args: &[String]) -> Result<RunArgs, String> {
    let (mut workload, mut seed, mut seconds, mut trace) = (None, None, None, None);
    let mut smoke = false;
    let mut out_dir = PathBuf::from("results").join("usp_benchmark");
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let mut value = |what: &str| {
            it.next()
                .cloned()
                .ok_or_else(|| format!("{flag} needs {what}"))
        };
        match flag.as_str() {
            "--workload" => workload = Some(value("a workload name")?),
            "--seed" => {
                seed = Some(
                    value("a number")?
                        .parse::<u64>()
                        .map_err(|e| format!("--seed: {e}"))?,
                )
            }
            "--seconds" => {
                let s = value("a number")?
                    .parse::<f64>()
                    .map_err(|e| format!("--seconds: {e}"))?;
                if !(s > 0.0 && s <= 60.0) {
                    return Err(format!("--seconds must be in (0, 60], got {s}"));
                }
                seconds = Some(s);
            }
            "--trace" => {
                trace = Some(match value("0 or 1")?.as_str() {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("--trace must be 0 or 1, got {other}")),
                })
            }
            "--smoke" => smoke = true,
            "--out-dir" => out_dir = PathBuf::from(value("a directory")?),
            other => return Err(format!("unknown argument {other}")),
        }
    }
    let workload = workload.ok_or("--workload is required")?;
    if spec::workload(&workload).is_none() {
        return Err(format!("unknown workload {workload}"));
    }
    Ok(RunArgs {
        workload,
        seed: seed.ok_or("--seed is required")?,
        seconds: seconds.ok_or("--seconds is required")?,
        trace: trace.ok_or("--trace is required")?,
        smoke,
        out_dir,
    })
}

/// Runs one workload as `args` describe and returns its result with the stamp it was
/// taken under. `Err` is a refusal to run (the host gate).
pub fn run(args: &RunArgs) -> Result<(RunResult, Stamp), String> {
    let host_cpus = std::thread::available_parallelism().map_or(1, std::num::NonZeroUsize::get);
    let pool_threads = rayon::current_num_threads();
    if !args.trace {
        host_gate(host_cpus, pool_threads)?;
    }
    let fixture = if args.smoke { spec::SMOKE } else { spec::MIX64 };
    let cfg = RunConfig {
        workload: spec::workload(&args.workload).expect("validated by parse_run_args"),
        fixture,
        seed: args.seed,
        seconds: args.seconds,
        out_dir: args.out_dir.clone(),
        setup_repeats: if args.smoke { 1 } else { spec::SETUP_REPEATS },
    };
    let stamp = Stamp {
        git_rev: git_rev(Path::new(".")),
        host_cpus,
        pool_threads,
        seed: args.seed,
        seconds: args.seconds,
        fixture,
    };
    let result = if args.trace {
        layers::run_traced(&cfg, host_cpus)
    } else {
        workloads::run_end_to_end(&cfg)
    };
    Ok((result, stamp))
}

/// The whole command line. Returns the process exit code: 0 for a correct run, 1 for a
/// run whose answers were wrong (its result line says `"correct":false`), 2 for a
/// refusal to run, in which case no result is printed.
pub fn main_with_args(args: &[String]) -> i32 {
    if args.first().map(String::as_str) == Some("compare") {
        let bounds = match args.get(3).map(String::as_str) {
            Some("--bounds") => args.get(4).map(PathBuf::from),
            _ => Some(PathBuf::from("BENCHMARK.json")),
        };
        let (Some(a), Some(b), Some(bounds)) = (args.get(1), args.get(2), bounds) else {
            eprintln!("{USAGE}");
            return 2;
        };
        return match compare_files(Path::new(a), Path::new(b), &bounds) {
            Ok((table, regressed)) => {
                print!("{table}");
                i32::from(regressed)
            }
            Err(e) => {
                eprintln!("compare: {e}");
                2
            }
        };
    }
    let args = match parse_run_args(args) {
        Ok(args) => args,
        Err(e) => {
            eprintln!("{e}\n{USAGE}");
            return 2;
        }
    };
    let (result, stamp) = match run(&args) {
        Ok(done) => done,
        Err(refusal) => {
            eprintln!("{refusal}");
            return 2;
        }
    };

    eprintln!(
        "{} seed {} seconds {} trace {} | rev {} host_cpus {} pool_threads {} | {} {}x{}d",
        args.workload,
        args.seed,
        args.seconds,
        u8::from(args.trace),
        stamp.git_rev,
        stamp.host_cpus,
        stamp.pool_threads,
        stamp.fixture.name,
        stamp.fixture.n_base,
        stamp.fixture.dim
    );
    for m in &result.metrics {
        eprintln!("  {:<28} {:>16.6} {}", m.name, m.value, m.unit);
    }
    eprintln!(
        "  detail: {}",
        serde_json::to_string(&result.detail).unwrap_or_default()
    );
    for p in &result.problems {
        eprintln!("  WRONG: {p}");
    }
    let record = args.out_dir.join("runs.jsonl");
    if let Err(e) = append_record(&record, &stamp, &args.workload, args.trace, &result) {
        eprintln!("could not append to {}: {e}", record.display());
    }
    // Join the pool's workers: nothing this process started outlives the result line.
    rayon::shutdown_pool();
    println!(
        "{}",
        result_line(
            result.correct,
            result.attempted.max(1),
            result.failed,
            &result.metrics
        )
    );
    i32::from(!result.correct)
}
