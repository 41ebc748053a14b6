//! Evaluation harness: recall-vs-candidate-size sweeps and reproductions of every table
//! and figure in the paper's evaluation (§5).
//!
//! * [`scale`] — experiment sizing; the paper's SIFT1M/MNIST runs are reproduced on
//!   synthetic stand-ins whose size is controlled by the `USP_SCALE` environment variable
//!   (see DESIGN.md for the substitution rationale);
//! * [`recall`] — k-NN accuracy (Eq. 1) and recall-vs-candidates sweep machinery;
//! * [`report`] — result containers (series, tables) with console printing and JSON export
//!   under `results/`;
//! * [`experiments`] — one entry point per table/figure: `figure5`, `figure6`, `figure7`,
//!   `table2`, `table3`, `table4`, `table5`, and the §5.1.4 parameter ablations.
//!
//! `usp-bench`'s `run_all` runs these functions by report id and saves their reports.

pub mod experiments;
pub mod recall;
pub mod report;
pub mod scale;

pub use recall::{recall_at_k, sweep_probes, SweepPoint};
pub use report::{ExperimentReport, Series};
pub use scale::Scale;
