//! Output: the contract's result line, the stamped run record, and `compare`.

use std::io::Write;
use std::path::Path;

use serde::Value;

use crate::spec::FixtureSpec;
use crate::stats::{median, quartile_spread};

#[derive(Debug, Clone, PartialEq)]
pub struct Metric {
    pub name: &'static str,
    pub value: f64,
    pub unit: &'static str,
}

impl Metric {
    pub fn new(name: &'static str, value: f64, unit: &'static str) -> Metric {
        Metric { name, value, unit }
    }
}

/// What one run reports.
pub struct RunResult {
    pub correct: bool,
    pub attempted: u64,
    pub failed: u64,
    pub metrics: Vec<Metric>,
    /// Everything else worth keeping beside the contract's metrics (per-rung figures,
    /// write latencies, stage times); goes into the run record, not the result line.
    pub detail: Value,
    /// Why `correct` is false, if it is.
    pub problems: Vec<String>,
}

pub fn obj(fields: Vec<(&str, Value)>) -> Value {
    Value::Object(
        fields
            .into_iter()
            .map(|(k, v)| (k.to_string(), v))
            .collect(),
    )
}

fn metrics_value(metrics: &[Metric]) -> Value {
    Value::Object(
        metrics
            .iter()
            .map(|m| {
                (
                    m.name.to_string(),
                    obj(vec![
                        ("value", Value::Float(m.value)),
                        ("unit", Value::Str(m.unit.to_string())),
                    ]),
                )
            })
            .collect(),
    )
}

/// The last line of standard output: exactly `correct`, `attempted`, `failed`, `metrics`.
pub fn result_line(correct: bool, attempted: u64, failed: u64, metrics: &[Metric]) -> String {
    let line = obj(vec![
        ("correct", Value::Bool(correct)),
        ("attempted", Value::UInt(attempted)),
        ("failed", Value::UInt(failed)),
        ("metrics", metrics_value(metrics)),
    ]);
    serde_json::to_string(&line).expect("a Value always serialises")
}

/// Where and on what a result was taken. Recorded with every result; a result without
/// it cannot be compared with another.
#[derive(Debug, Clone)]
pub struct Stamp {
    pub git_rev: String,
    pub host_cpus: usize,
    pub pool_threads: usize,
    pub seed: u64,
    pub seconds: f64,
    pub fixture: FixtureSpec,
}

impl Stamp {
    pub fn to_value(&self) -> Value {
        let f = &self.fixture;
        obj(vec![
            ("git_rev", Value::Str(self.git_rev.clone())),
            ("host_cpus", Value::UInt(self.host_cpus as u64)),
            ("pool_threads", Value::UInt(self.pool_threads as u64)),
            ("seed", Value::UInt(self.seed)),
            ("seconds", Value::Float(self.seconds)),
            (
                "fixture",
                obj(vec![
                    ("name", Value::Str(f.name.to_string())),
                    ("n_base", Value::UInt(f.n_base as u64)),
                    ("n_queries", Value::UInt(f.n_queries as u64)),
                    ("dim", Value::UInt(f.dim as u64)),
                    ("bins", Value::UInt(f.bins as u64)),
                    ("epochs", Value::UInt(f.epochs as u64)),
                    ("k", Value::UInt(f.k as u64)),
                ]),
            ),
        ])
    }
}

/// The checked-out commit, read from `.git` without running anything; `unknown` in a
/// checkout that is not a repository (the driver's).
pub fn git_rev(root: &Path) -> String {
    let head = match std::fs::read_to_string(root.join(".git").join("HEAD")) {
        Ok(head) => head.trim().to_string(),
        Err(_) => return "unknown".into(),
    };
    match head.strip_prefix("ref: ") {
        None => head,
        Some(reference) => std::fs::read_to_string(root.join(".git").join(reference))
            .map(|s| s.trim().to_string())
            .unwrap_or_else(|_| "unknown".into()),
    }
}

/// The host gate: a pool wider than the host is the fault in every committed
/// `BENCH_*.json` (`host_cpus: 1, pool_threads: 4`), so such a run is refused outright.
pub fn host_gate(host_cpus: usize, pool_threads: usize) -> Result<(), String> {
    if pool_threads > host_cpus {
        Err(format!(
            "refusing to run: the worker pool has {pool_threads} threads but the host has \
             {host_cpus} cpus, so every timing would measure oversubscription \
             (unset USP_NUM_THREADS or lower it)"
        ))
    } else {
        Ok(())
    }
}

/// Appends one run record (stamp, workload, result, detail) to the JSON-lines file.
pub fn append_record(
    path: &Path,
    stamp: &Stamp,
    workload: &str,
    trace: bool,
    result: &RunResult,
) -> std::io::Result<()> {
    let record = obj(vec![
        ("workload", Value::Str(workload.to_string())),
        ("trace", Value::Bool(trace)),
        ("stamp", stamp.to_value()),
        ("correct", Value::Bool(result.correct)),
        ("attempted", Value::UInt(result.attempted)),
        ("failed", Value::UInt(result.failed)),
        ("metrics", metrics_value(&result.metrics)),
        ("detail", result.detail.clone()),
    ]);
    if let Some(dir) = path.parent() {
        std::fs::create_dir_all(dir)?;
    }
    let mut file = std::fs::OpenOptions::new()
        .create(true)
        .append(true)
        .open(path)?;
    writeln!(
        file,
        "{}",
        serde_json::to_string(&record).expect("a Value always serialises")
    )
}

// --------------------------------------------------------------------- compare

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Verdict {
    Better,
    WithinBound,
    Regressed,
    /// The run-to-run spread is wider than the bound, so "unchanged" cannot be claimed.
    Unresolved,
}

impl Verdict {
    pub fn label(self) -> &'static str {
        match self {
            Verdict::Better => "better",
            Verdict::WithinBound => "within bound",
            Verdict::Regressed => "regressed",
            Verdict::Unresolved => "unresolved",
        }
    }
}

#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Comparison {
    pub base_median: f64,
    pub new_median: f64,
    /// How much worse the new median is, as a share of the base median (negative when
    /// it is better).
    pub worse_by: f64,
    /// The wider of the two sides' quartile spreads, as a share of its median.
    pub spread: f64,
    pub verdict: Verdict,
}

/// The compare rule. `bound` is the share of the base median by which the metric may
/// worsen. A metric whose spread exceeds the bound is `Unresolved` unless every new run
/// beats every base run; otherwise it is `Regressed` past the bound, `Better` when the
/// gain exceeds the spread, and `WithinBound` in between.
pub fn compare_metric(base: &[f64], new: &[f64], higher_is_better: bool, bound: f64) -> Comparison {
    let (base_median, new_median) = (median(base), median(new));
    let sign = if higher_is_better { -1.0 } else { 1.0 };
    let worse_by = sign * (new_median - base_median) / base_median.abs();
    let spread_of = |v: &[f64]| {
        if v.len() >= 2 {
            quartile_spread(v)
        } else {
            0.0
        }
    };
    let spread = spread_of(base).max(spread_of(new));
    let beats = |n: f64, b: f64| if higher_is_better { n > b } else { n < b };
    let all_better = new.iter().all(|&n| base.iter().all(|&b| beats(n, b)));
    let verdict = if spread > bound {
        if all_better {
            Verdict::Better
        } else {
            Verdict::Unresolved
        }
    } else if worse_by > bound {
        Verdict::Regressed
    } else if -worse_by > spread && worse_by < 0.0 {
        Verdict::Better
    } else {
        Verdict::WithinBound
    };
    Comparison {
        base_median,
        new_median,
        worse_by,
        spread,
        verdict,
    }
}

/// `(workload, metric) -> values` of the untraced records of a JSON-lines result set.
fn load_results(path: &Path) -> Result<Vec<(String, String, Vec<f64>)>, String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("{}: {e}", path.display()))?;
    let mut out: Vec<(String, String, Vec<f64>)> = Vec::new();
    for (n, line) in text
        .lines()
        .enumerate()
        .filter(|(_, l)| !l.trim().is_empty())
    {
        let record: Value =
            serde_json::from_str(line).map_err(|e| format!("{}:{}: {e}", path.display(), n + 1))?;
        if record.get("trace") == Some(&Value::Bool(true)) {
            continue;
        }
        let Some(Value::Str(workload)) = record.get("workload") else {
            return Err(format!("{}:{}: no workload", path.display(), n + 1));
        };
        let Some(Value::Object(metrics)) = record.get("metrics") else {
            return Err(format!("{}:{}: no metrics", path.display(), n + 1));
        };
        for (name, m) in metrics {
            let value = match m.get("value") {
                Some(Value::Float(v)) => *v,
                Some(Value::Int(v)) => *v as f64,
                Some(Value::UInt(v)) => *v as f64,
                _ => {
                    return Err(format!(
                        "{}:{}: `{name}` has no value",
                        path.display(),
                        n + 1
                    ))
                }
            };
            match out.iter_mut().find(|(w, m, _)| w == workload && m == name) {
                Some((_, _, values)) => values.push(value),
                None => out.push((workload.clone(), name.clone(), vec![value])),
            }
        }
    }
    Ok(out)
}

/// `name -> (higher_is_better, bound)` of the end-to-end metrics in `BENCHMARK.json`.
pub fn load_bounds(path: &Path) -> Result<Vec<(String, bool, f64)>, String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("{}: {e}", path.display()))?;
    let spec: Value =
        serde_json::from_str(&text).map_err(|e| format!("{}: {e}", path.display()))?;
    let Some(Value::Array(metrics)) = spec.get("end_to_end") else {
        return Err(format!("{}: no end_to_end list", path.display()));
    };
    metrics
        .iter()
        .map(|m| match (m.get("name"), m.get("better"), m.get("bound")) {
            (Some(Value::Str(name)), Some(Value::Str(better)), Some(Value::Float(bound))) => {
                Ok((name.clone(), better == "higher", *bound))
            }
            _ => Err(format!(
                "{}: malformed end_to_end entry {m:?}",
                path.display()
            )),
        })
        .collect()
}

/// `compare A B`: per (workload, end-to-end metric), the verdict on B against A.
/// Returns the printed table and whether anything regressed.
pub fn compare_files(base: &Path, new: &Path, bounds: &Path) -> Result<(String, bool), String> {
    let bounds = load_bounds(bounds)?;
    let (base, new) = (load_results(base)?, load_results(new)?);
    let mut table = format!(
        "{:<18} {:<14} {:>12} {:>12} {:>8} {:>8} {:>6}  verdict\n",
        "workload", "metric", "A median", "B median", "worse", "spread", "bound"
    );
    let mut regressed = false;
    for (workload, name, a) in &base {
        let Some((_, higher, bound)) = bounds.iter().find(|(n, _, _)| n == name) else {
            continue;
        };
        let Some((_, _, b)) = new.iter().find(|(w, m, _)| w == workload && m == name) else {
            table.push_str(&format!("{workload:<18} {name:<14} missing from B\n"));
            regressed = true;
            continue;
        };
        let c = compare_metric(a, b, *higher, *bound);
        regressed |= c.verdict == Verdict::Regressed;
        table.push_str(&format!(
            "{workload:<18} {name:<14} {:>12.4} {:>12.4} {:>+7.1}% {:>7.1}% {:>5.0}%  {}\n",
            c.base_median,
            c.new_median,
            c.worse_by * 100.0,
            c.spread * 100.0,
            bound * 100.0,
            c.verdict.label()
        ));
    }
    Ok((table, regressed))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn result_line_has_exactly_the_contract_keys() {
        let line = result_line(
            true,
            1000,
            0,
            &[
                Metric::new("qps", 8123.456789, "1/s"),
                Metric::new("setup_s", 4.25, "s"),
            ],
        );
        assert_eq!(
            line,
            r#"{"correct":true,"attempted":1000,"failed":0,"metrics":{"qps":{"value":8123.456789,"unit":"1/s"},"setup_s":{"value":4.25,"unit":"s"}}}"#
        );
        assert!(!line.contains('\n'));
        // It reads back as JSON with the four keys and nothing else.
        let back: Value = serde_json::from_str(&line).expect("valid JSON");
        let Value::Object(fields) = back else {
            panic!("not an object")
        };
        let keys: Vec<&str> = fields.iter().map(|(k, _)| k.as_str()).collect();
        assert_eq!(keys, ["correct", "attempted", "failed", "metrics"]);
    }

    #[test]
    fn whole_numbers_keep_a_decimal_point_and_all_digits_survive() {
        let line = result_line(true, 1, 0, &[Metric::new("x", 32000.0, "1/s")]);
        assert!(line.contains(r#""value":32000.0"#), "{line}");
        let line = result_line(true, 1, 0, &[Metric::new("x", 0.123456789012345, "s")]);
        assert!(line.contains("0.123456789012345"), "{line}");
    }

    #[test]
    fn host_gate_refuses_an_oversubscribed_pool() {
        assert!(host_gate(2, 2).is_ok());
        assert!(host_gate(2, 1).is_ok());
        let refusal = host_gate(1, 4).expect_err("the BENCH_*.json fault");
        assert!(
            refusal.contains("4 threads") && refusal.contains("1 cpus"),
            "{refusal}"
        );
    }

    #[test]
    fn compare_rule_covers_the_four_verdicts() {
        let steady = [
            100.0, 101.0, 99.0, 100.5, 99.5, 100.0, 100.2, 99.8, 100.1, 99.9,
        ];
        let shift = |d: f64| steady.iter().map(|v| v + d).collect::<Vec<_>>();
        // lower is better (a latency), bound 10 %
        assert_eq!(
            compare_metric(&steady, &shift(20.0), false, 0.10).verdict,
            Verdict::Regressed
        );
        assert_eq!(
            compare_metric(&steady, &shift(5.0), false, 0.10).verdict,
            Verdict::WithinBound
        );
        assert_eq!(
            compare_metric(&steady, &shift(-20.0), false, 0.10).verdict,
            Verdict::Better
        );
        // higher is better (a throughput): the same shifts read the other way round
        assert_eq!(
            compare_metric(&steady, &shift(-20.0), true, 0.10).verdict,
            Verdict::Regressed
        );
        assert_eq!(
            compare_metric(&steady, &shift(20.0), true, 0.10).verdict,
            Verdict::Better
        );
        // a gain smaller than the spread is not a gain
        assert_eq!(
            compare_metric(&steady, &shift(-0.2), false, 0.10).verdict,
            Verdict::WithinBound
        );
        // spread wider than the bound: unresolved, unless every run beats every run
        let noisy = [
            60.0, 140.0, 80.0, 120.0, 100.0, 70.0, 130.0, 90.0, 110.0, 100.0,
        ];
        assert_eq!(
            compare_metric(&noisy, &noisy, false, 0.10).verdict,
            Verdict::Unresolved
        );
        let c = compare_metric(&noisy, &[10.0, 20.0, 30.0], false, 0.10);
        assert_eq!(c.verdict, Verdict::Better);
        assert!(c.worse_by < -0.7 && c.spread > 0.10, "{c:?}");
    }

    #[test]
    fn compare_reads_two_result_sets_and_the_bounds() {
        let dir = std::env::temp_dir().join(format!("usp-compare-{}", std::process::id()));
        std::fs::create_dir_all(&dir).expect("temp dir");
        let stamp = Stamp {
            git_rev: "abc".into(),
            host_cpus: 2,
            pool_threads: 2,
            seed: 1,
            seconds: 10.0,
            fixture: crate::spec::SMOKE,
        };
        let (a, b) = (dir.join("a.jsonl"), dir.join("b.jsonl"));
        let result = |metrics: Vec<Metric>| RunResult {
            correct: true,
            attempted: 10,
            failed: 0,
            metrics,
            detail: obj(vec![]),
            problems: Vec::new(),
        };
        for (path, qps) in [(&a, 1000.0), (&b, 700.0)] {
            for i in 0..4 {
                let metrics = vec![
                    Metric::new("qps", qps + f64::from(i), "1/s"),
                    Metric::new("setup_s", 4.0 + f64::from(i) * 0.01, "s"),
                ];
                append_record(path, &stamp, "closed_heavy", false, &result(metrics))
                    .expect("append");
            }
            // Traced records carry per-layer metrics and are not compared.
            append_record(path, &stamp, "closed_heavy", true, &result(Vec::new())).expect("append");
        }
        let bounds = dir.join("BENCHMARK.json");
        std::fs::write(
            &bounds,
            r#"{"end_to_end": [
                {"name": "qps", "unit": "1/s", "better": "higher", "bound": 0.08},
                {"name": "setup_s", "unit": "s", "better": "lower", "bound": 0.25}]}"#,
        )
        .expect("write bounds");
        let (table, regressed) = compare_files(&a, &b, &bounds).expect("compare");
        std::fs::remove_dir_all(&dir).expect("clean up");
        assert!(regressed, "{table}");
        let row = |metric: &str| {
            table
                .lines()
                .find(|l| l.contains(metric))
                .unwrap_or_else(|| panic!("no {metric} row in\n{table}"))
                .to_string()
        };
        assert!(row("qps").ends_with("regressed"), "{table}");
        assert!(row("setup_s").ends_with("within bound"), "{table}");
    }
}
