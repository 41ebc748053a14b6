//! Runs the paper's evaluation and saves each report as `results/<id>.json`.
//!
//! `run_all` runs every experiment in order; `run_all <id>…` runs only the named ones,
//! where an id is a report id such as `table2_params` or `fig6_trees`. An unknown id
//! exits non-zero before any experiment runs; a report that could not be saved makes the
//! exit non-zero once every selected experiment has run. Control the dataset sizes with
//! `USP_SCALE` (small | medium | large).

use std::process::ExitCode;

use usp_eval::{experiments, ExperimentReport, Scale};

type Experiment = fn(&Scale) -> ExperimentReport;

/// Every experiment under its report id, in the order a bare `run_all` runs them.
const EXPERIMENTS: [(&str, Experiment); 8] = [
    ("table2_params", |_| experiments::table2()),
    ("table5_clustering", |_| experiments::table5()),
    ("table3_training_time", experiments::table3),
    ("table4_candidate_reduction", experiments::table4),
    ("fig5_partitioning", experiments::figure5),
    ("fig6_trees", experiments::figure6),
    ("fig7_scann_pipeline", experiments::figure7),
    ("ablation_params", experiments::ablations),
];

/// The experiments `ids` names, in the order given; all of them when `ids` is empty.
fn select(ids: &[String]) -> Result<Vec<(&'static str, Experiment)>, String> {
    if ids.is_empty() {
        return Ok(EXPERIMENTS.to_vec());
    }
    ids.iter()
        .map(|id| {
            EXPERIMENTS
                .iter()
                .find(|(name, _)| name == id)
                .copied()
                .ok_or_else(|| {
                    let names: Vec<&str> = EXPERIMENTS.iter().map(|(name, _)| *name).collect();
                    format!(
                        "unknown experiment {id:?}; expected one of {}",
                        names.join(", ")
                    )
                })
        })
        .collect()
}

fn main() -> ExitCode {
    let ids: Vec<String> = std::env::args().skip(1).collect();
    let selected = match select(&ids) {
        Ok(selected) => selected,
        Err(e) => {
            eprintln!("run_all: {e}");
            return ExitCode::FAILURE;
        }
    };
    let scale = Scale::from_env();
    println!(
        "Running {} experiment(s) at scale '{}'",
        selected.len(),
        scale.name
    );
    let dir = usp_eval::report::default_results_dir();
    let started = std::time::Instant::now();

    let mut unsaved = 0;
    for (_, experiment) in selected {
        let report = experiment(&scale);
        println!("{}", report.render());
        match report.save_json(&dir) {
            Ok(path) => println!("saved {}\n", path.display()),
            Err(e) => {
                eprintln!("could not save results: {e}");
                unsaved += 1;
            }
        }
    }
    println!(
        "all experiments finished in {:.1}s",
        started.elapsed().as_secs_f64()
    );
    if unsaved > 0 {
        eprintln!("run_all: {unsaved} report(s) were not saved");
        return ExitCode::FAILURE;
    }
    ExitCode::SUCCESS
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn every_experiment_reports_under_its_own_id() {
        // Small enough that the whole table runs in seconds in a debug build; the
        // experiments' own tests check their shapes and orderings.
        let scale = Scale {
            name: "tiny".into(),
            sift_n: 256,
            sift_dim: 8,
            mnist_n: 200,
            mnist_dim: 12,
            queries: 10,
            tree_depth: 3,
            epochs: 2,
        };
        for (name, experiment) in EXPERIMENTS {
            assert_eq!(experiment(&scale).id, name);
        }
    }

    #[test]
    fn selection_keeps_the_named_order_and_refuses_unknown_ids() {
        let names = |ids: &[&str]| -> Result<Vec<&str>, String> {
            let ids: Vec<String> = ids.iter().map(|id| id.to_string()).collect();
            Ok(select(&ids)?.into_iter().map(|(name, _)| name).collect())
        };
        let all: Vec<&str> = EXPERIMENTS.iter().map(|(name, _)| *name).collect();
        assert_eq!(names(&[]).unwrap(), all);
        assert_eq!(
            names(&["fig6_trees", "table2_params"]).unwrap(),
            ["fig6_trees", "table2_params"]
        );
        let err = names(&["table2_params", "no_such_experiment"]).unwrap_err();
        assert!(err.contains("\"no_such_experiment\""), "{err}");
        assert!(all.iter().all(|name| err.contains(name)), "{err}");
    }
}
