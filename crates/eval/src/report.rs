//! Result containers, console rendering and JSON export.
//!
//! Every experiment produces an [`ExperimentReport`]: named series of sweep points (for
//! figures) and/or named rows of key→value cells (for tables). Reports print themselves in
//! a paper-like layout and serialise to `results/<id>.json`, which is what EXPERIMENTS.md
//! is written from.

use std::path::Path;

use serde::Value;

use crate::recall::SweepPoint;

/// One named curve of a figure (e.g. "Ours (3 models)", "Neural LSH").
#[derive(Debug, Clone)]
pub struct Series {
    /// Method name.
    pub name: String,
    /// Sweep points, ordered by increasing candidate count.
    pub points: Vec<SweepPoint>,
}

/// One named row of a table (ordered key/value cells).
#[derive(Debug, Clone)]
pub struct Row {
    /// Row label (e.g. a method or configuration name).
    pub name: String,
    /// Ordered `(column, value)` cells.
    pub cells: Vec<(String, String)>,
}

/// What a figure's x-axis, each point's [`SweepPoint::mean_candidates`], measures.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub enum XAxis {
    /// Mean candidate-set size per query, written as `mean_candidates`.
    #[default]
    Candidates,
    /// Mean wall-clock query time in µs, written as `mean_query_us`.
    QueryUs,
}

impl XAxis {
    /// The points' JSON key.
    fn key(self) -> &'static str {
        match self {
            XAxis::Candidates => "mean_candidates",
            XAxis::QueryUs => "mean_query_us",
        }
    }

    /// The rendered column's header.
    fn label(self) -> &'static str {
        match self {
            XAxis::Candidates => "candidates",
            XAxis::QueryUs => "query µs",
        }
    }
}

/// A full experiment result: figure-style series grouped by panel, and/or table rows.
#[derive(Debug, Clone, Default)]
pub struct ExperimentReport {
    /// Stable identifier, e.g. `fig5_sift_16bins` or `table3`.
    pub id: String,
    /// Human-readable title (matches the paper's caption).
    pub title: String,
    /// Figure panels: `(panel name, series)`.
    pub panels: Vec<(String, Vec<Series>)>,
    /// Table rows.
    pub rows: Vec<Row>,
    /// Free-form notes (scale used, substitutions, wall-clock).
    pub notes: Vec<String>,
    /// What the panels' x-axis measures. It is written as the points' key, not as a
    /// key of its own.
    pub x_axis: XAxis,
}

impl ExperimentReport {
    /// Creates an empty report.
    pub fn new(id: impl Into<String>, title: impl Into<String>) -> Self {
        Self {
            id: id.into(),
            title: title.into(),
            ..Default::default()
        }
    }

    /// Adds a figure panel.
    pub fn add_panel(&mut self, name: impl Into<String>, series: Vec<Series>) {
        self.panels.push((name.into(), series));
    }

    /// Adds a table row.
    pub fn add_row(&mut self, name: impl Into<String>, cells: Vec<(String, String)>) {
        self.rows.push(Row {
            name: name.into(),
            cells,
        });
    }

    /// Adds a note.
    pub fn add_note(&mut self, note: impl Into<String>) {
        self.notes.push(note.into());
    }

    /// Renders the report as plain text (what the experiment binaries print).
    pub fn render(&self) -> String {
        let mut out = String::new();
        out.push_str(&format!("==== {} — {} ====\n", self.id, self.title));
        for note in &self.notes {
            out.push_str(&format!("  note: {note}\n"));
        }
        let header = format!("    probes  {:>10}   recall\n", self.x_axis.label());
        for (panel, series) in &self.panels {
            out.push_str(&format!("\n-- {panel} --\n"));
            for s in series {
                out.push_str(&format!("  {}\n", s.name));
                out.push_str(&header);
                for p in &s.points {
                    out.push_str(&format!(
                        "    {:>6}  {:>10.1}  {:>7.4}\n",
                        p.probes, p.mean_candidates, p.recall
                    ));
                }
            }
        }
        if !self.rows.is_empty() {
            out.push('\n');
            for row in &self.rows {
                let cells: Vec<String> =
                    row.cells.iter().map(|(k, v)| format!("{k}={v}")).collect();
                out.push_str(&format!("  {:<28} {}\n", row.name, cells.join("  ")));
            }
        }
        out
    }

    /// Writes the report as JSON into `dir/<id>.json`, creating the directory if needed.
    pub fn save_json(&self, dir: impl AsRef<Path>) -> std::io::Result<std::path::PathBuf> {
        let dir = dir.as_ref();
        std::fs::create_dir_all(dir)?;
        let path = dir.join(format!("{}.json", self.id));
        let json =
            serde_json::to_string_pretty(&self.to_value()).expect("writing a Value cannot fail");
        std::fs::write(&path, json)?;
        Ok(path)
    }

    /// The report's JSON tree: an object of its fields in declaration order, each
    /// `(name, series)` panel a two-element array.
    fn to_value(&self) -> Value {
        let panels = self.panels.iter().map(|(name, series)| {
            let series = series.iter().map(|s| s.to_value(self.x_axis)).collect();
            Value::Array(vec![Value::Str(name.clone()), Value::Array(series)])
        });
        object([
            ("id", Value::Str(self.id.clone())),
            ("title", Value::Str(self.title.clone())),
            ("panels", Value::Array(panels.collect())),
            (
                "rows",
                Value::Array(self.rows.iter().map(Row::to_value).collect()),
            ),
            (
                "notes",
                Value::Array(self.notes.iter().cloned().map(Value::Str).collect()),
            ),
        ])
    }
}

impl Series {
    /// `{"name", "points"}`.
    fn to_value(&self, x_axis: XAxis) -> Value {
        let points = self.points.iter().map(|p| p.to_value(x_axis)).collect();
        object([
            ("name", Value::Str(self.name.clone())),
            ("points", Value::Array(points)),
        ])
    }
}

impl Row {
    /// `{"name", "cells"}`, each cell a `[column, value]` array.
    fn to_value(&self) -> Value {
        let cells = self.cells.iter().map(|(column, value)| {
            Value::Array(vec![Value::Str(column.clone()), Value::Str(value.clone())])
        });
        object([
            ("name", Value::Str(self.name.clone())),
            ("cells", Value::Array(cells.collect())),
        ])
    }
}

impl SweepPoint {
    /// `{"probes", <the x-axis key>, "recall"}`; a NaN is written as `null`.
    fn to_value(self, x_axis: XAxis) -> Value {
        let probes = i64::try_from(self.probes).map_or(Value::UInt(self.probes as u64), Value::Int);
        object([
            ("probes", probes),
            (x_axis.key(), Value::Float(self.mean_candidates)),
            ("recall", Value::Float(self.recall)),
        ])
    }
}

fn object<const N: usize>(fields: [(&str, Value); N]) -> Value {
    Value::Object(fields.map(|(k, v)| (k.to_string(), v)).into())
}

/// The default output directory for experiment JSON (workspace-root `results/`).
pub fn default_results_dir() -> std::path::PathBuf {
    // The bench binaries run from the workspace root; fall back to the current directory.
    let candidate = std::path::Path::new("results");
    candidate.to_path_buf()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> ExperimentReport {
        let mut r = ExperimentReport::new("test_report", "A test");
        r.add_note("scale=small");
        r.add_panel(
            "SIFT, 16 bins",
            vec![Series {
                name: "Ours".into(),
                points: vec![SweepPoint {
                    probes: 1,
                    mean_candidates: 100.0,
                    recall: 0.8,
                }],
            }],
        );
        r.add_row("Ours", vec![("params".into(), "183k".into())]);
        r
    }

    #[test]
    fn a_time_axis_has_its_own_key_and_header() {
        let candidates = sample().render();
        assert!(candidates.contains("    probes  candidates   recall\n"));
        let mut r = sample();
        r.x_axis = XAxis::QueryUs;
        let text = r.render();
        assert!(text.contains("    probes    query µs   recall\n"), "{text}");
        let json = serde_json::to_string(&r.to_value()).unwrap();
        assert!(json.contains(r#"{"probes":1,"mean_query_us":100.0,"recall":0.8}"#));
        assert!(!json.contains("mean_candidates"));
    }

    #[test]
    fn render_contains_all_sections() {
        let text = sample().render();
        assert!(text.contains("test_report"));
        assert!(text.contains("SIFT, 16 bins"));
        assert!(text.contains("Ours"));
        assert!(text.contains("params=183k"));
        assert!(text.contains("scale=small"));
    }

    /// `save_json`'s bytes, exactly: two panels, a row with cells, notes, and a NaN
    /// recall (JSON has no NaN, so it is written as `null`).
    #[test]
    fn saved_json_is_byte_stable() {
        let mut r = ExperimentReport::new("golden", "Golden \"bytes\"");
        r.add_note("scale=small");
        r.add_note("wall-clock 1.5 s");
        r.add_panel(
            "SIFT, 16 bins",
            vec![Series {
                name: "Ours".into(),
                points: vec![
                    SweepPoint {
                        probes: 1,
                        mean_candidates: 100.0,
                        recall: 0.8,
                    },
                    SweepPoint {
                        probes: 2,
                        mean_candidates: 187.5,
                        recall: f64::NAN,
                    },
                ],
            }],
        );
        r.add_panel("MNIST, 256 bins", vec![]);
        r.add_row(
            "Ours",
            vec![
                ("params".into(), "183k".into()),
                ("recall".into(), "0.925".into()),
            ],
        );
        let dir =
            std::env::temp_dir().join(format!("usp_eval_report_golden_{}", std::process::id()));
        let path = r.save_json(&dir).unwrap();
        let text = std::fs::read_to_string(&path).unwrap();
        std::fs::remove_dir_all(&dir).ok();
        let expected = r#"{
  "id": "golden",
  "title": "Golden \"bytes\"",
  "panels": [
    [
      "SIFT, 16 bins",
      [
        {
          "name": "Ours",
          "points": [
            {
              "probes": 1,
              "mean_candidates": 100.0,
              "recall": 0.8
            },
            {
              "probes": 2,
              "mean_candidates": 187.5,
              "recall": null
            }
          ]
        }
      ]
    ],
    [
      "MNIST, 256 bins",
      []
    ]
  ],
  "rows": [
    {
      "name": "Ours",
      "cells": [
        [
          "params",
          "183k"
        ],
        [
          "recall",
          "0.925"
        ]
      ]
    }
  ],
  "notes": [
    "scale=small",
    "wall-clock 1.5 s"
  ]
}"#;
        assert_eq!(text, expected);
    }
}
