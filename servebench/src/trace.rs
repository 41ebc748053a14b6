//! Spans recorded from outside the program: around the calls into each layer's public
//! functions, kept in memory, written out when the run ends.
//!
//! A span is a name, a start, an end, the span that caused it and a batch id shared by
//! the spans of one batch (or one request). A layer's self time is its span's duration
//! minus the part its child spans cover.

use std::collections::BTreeMap;
use std::io::Write;
use std::path::Path;
use std::sync::OnceLock;
use std::time::Instant;

/// Nanoseconds since the first call in this process: the one clock of spans and of the
/// client's request records.
pub fn now_ns() -> u64 {
    static EPOCH: OnceLock<Instant> = OnceLock::new();
    EPOCH.get_or_init(Instant::now).elapsed().as_nanos() as u64
}

#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Span {
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
    /// Index of the enclosing span, if any.
    pub parent: Option<u32>,
    pub batch: u32,
}

#[derive(Default)]
pub struct Tracer {
    spans: Vec<Span>,
    /// Open spans, innermost last.
    stack: Vec<u32>,
}

/// Total and self time of every span of one name.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct Totals {
    pub count: u64,
    pub total_ns: u64,
    pub self_ns: u64,
}

impl Tracer {
    pub fn new() -> Tracer {
        Tracer::default()
    }

    /// Runs `f` inside a span; spans opened by `f` become its children.
    pub fn span<R>(
        &mut self,
        name: &'static str,
        batch: u32,
        f: impl FnOnce(&mut Tracer) -> R,
    ) -> R {
        let id = self.spans.len() as u32;
        self.spans.push(Span {
            name,
            start_ns: now_ns(),
            end_ns: 0,
            parent: self.stack.last().copied(),
            batch,
        });
        self.stack.push(id);
        let out = f(self);
        self.stack.pop();
        self.spans[id as usize].end_ns = now_ns();
        out
    }

    /// Records a span that was timed elsewhere (the client's request records), as a
    /// child of whatever span is open.
    pub fn record(&mut self, name: &'static str, start_ns: u64, end_ns: u64, batch: u32) {
        self.spans.push(Span {
            name,
            start_ns,
            end_ns,
            parent: self.stack.last().copied(),
            batch,
        });
    }

    pub fn span_count(&self) -> usize {
        self.spans.len()
    }

    /// Per-name totals. Self time is the span's duration minus its direct children's.
    pub fn totals(&self) -> BTreeMap<&'static str, Totals> {
        let mut child_ns = vec![0u64; self.spans.len()];
        for s in &self.spans {
            if let Some(p) = s.parent {
                child_ns[p as usize] += s.end_ns - s.start_ns;
            }
        }
        let mut out: BTreeMap<&'static str, Totals> = BTreeMap::new();
        for (s, &children) in self.spans.iter().zip(&child_ns) {
            let t = out.entry(s.name).or_default();
            let dur = s.end_ns - s.start_ns;
            t.count += 1;
            t.total_ns += dur;
            t.self_ns += dur.saturating_sub(children);
        }
        out
    }

    /// Duration in microseconds of every span named `name`, keyed by its batch id (spans of
    /// one name and batch are summed).
    pub fn us_by_batch(&self, name: &str) -> BTreeMap<u32, f64> {
        let mut out = BTreeMap::new();
        for s in self.spans.iter().filter(|s| s.name == name) {
            *out.entry(s.batch).or_insert(0.0) += (s.end_ns - s.start_ns) as f64 / 1e3;
        }
        out
    }

    /// One JSON object per line: `{"name", "start_ns", "end_ns", "parent", "batch"}`.
    pub fn write_jsonl(&self, path: &Path) -> std::io::Result<()> {
        let mut w = std::io::BufWriter::new(std::fs::File::create(path)?);
        for s in &self.spans {
            let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
            writeln!(
                w,
                "{{\"name\":\"{}\",\"start_ns\":{},\"end_ns\":{},\"parent\":{},\"batch\":{}}}",
                s.name, s.start_ns, s.end_ns, parent, s.batch
            )?;
        }
        w.flush()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn self_time_is_the_span_minus_its_children() {
        let mut t = Tracer::new();
        // Hand-placed spans: parent 0..100, children 10..30 and 40..90, grandchild 50..60.
        t.spans = vec![
            Span {
                name: "engine",
                start_ns: 0,
                end_ns: 100,
                parent: None,
                batch: 7,
            },
            Span {
                name: "route",
                start_ns: 10,
                end_ns: 30,
                parent: Some(0),
                batch: 7,
            },
            Span {
                name: "scan",
                start_ns: 40,
                end_ns: 90,
                parent: Some(0),
                batch: 7,
            },
            Span {
                name: "kernel",
                start_ns: 50,
                end_ns: 60,
                parent: Some(2),
                batch: 7,
            },
        ];
        let totals = t.totals();
        assert_eq!(
            totals["engine"],
            Totals {
                count: 1,
                total_ns: 100,
                self_ns: 30
            }
        );
        assert_eq!(
            totals["route"],
            Totals {
                count: 1,
                total_ns: 20,
                self_ns: 20
            }
        );
        assert_eq!(
            totals["scan"],
            Totals {
                count: 1,
                total_ns: 50,
                self_ns: 40
            }
        );
        // The parts sum to the whole: self times add up to the root's duration.
        let sum: u64 = totals.values().map(|t| t.self_ns).sum();
        assert_eq!(sum, 100);
        assert_eq!(t.us_by_batch("engine"), BTreeMap::from([(7, 0.1)]));
        assert!(t.us_by_batch("missing").is_empty());
    }

    #[test]
    fn nested_spans_record_their_parent_and_batch() {
        let mut t = Tracer::new();
        let out = t.span("batch", 3, |t| {
            t.span("route", 3, |_| ());
            t.record("wire.query", 5, 9, 42);
            11
        });
        assert_eq!(out, 11);
        assert_eq!(t.span_count(), 3);
        assert_eq!(t.spans[0].parent, None);
        assert_eq!(
            (t.spans[1].name, t.spans[1].parent, t.spans[1].batch),
            ("route", Some(0), 3)
        );
        assert_eq!((t.spans[2].parent, t.spans[2].batch), (Some(0), 42));
        assert!(t.spans[0].end_ns >= t.spans[1].end_ns);
    }

    #[test]
    fn spans_are_written_one_json_object_per_line() {
        let mut t = Tracer::new();
        t.spans = vec![
            Span {
                name: "a",
                start_ns: 1,
                end_ns: 2,
                parent: None,
                batch: 0,
            },
            Span {
                name: "b",
                start_ns: 1,
                end_ns: 2,
                parent: Some(0),
                batch: 5,
            },
        ];
        let path = std::env::temp_dir().join(format!("usp-spans-{}.jsonl", std::process::id()));
        t.write_jsonl(&path).expect("write spans");
        let text = std::fs::read_to_string(&path).expect("read spans back");
        std::fs::remove_file(&path).expect("remove spans");
        let lines: Vec<&str> = text.lines().collect();
        assert_eq!(
            lines,
            vec![
                r#"{"name":"a","start_ns":1,"end_ns":2,"parent":null,"batch":0}"#,
                r#"{"name":"b","start_ns":1,"end_ns":2,"parent":0,"batch":5}"#,
            ]
        );
    }
}
