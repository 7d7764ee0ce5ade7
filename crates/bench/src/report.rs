//! Benchmark reporting: aligned text tables plus a JSON dump.

use std::fmt::Write as _;
use std::fs;
use std::path::PathBuf;

use maxson_json::JsonValue;

/// One named series of (label, value) points.
#[derive(Debug, Clone)]
pub struct Series {
    /// Series name (e.g. "Maxson", "Spark+Jackson").
    pub name: String,
    /// Data points: `(x label, value)`.
    pub points: Vec<(String, f64)>,
}

impl Series {
    /// Empty series.
    pub fn new(name: impl Into<String>) -> Self {
        Series {
            name: name.into(),
            points: Vec::new(),
        }
    }

    /// Append a point.
    pub fn push(&mut self, label: impl Into<String>, value: f64) {
        self.points.push((label.into(), value));
    }
}

/// A whole experiment report: title, commentary, and series.
#[derive(Debug)]
pub struct Report {
    /// Experiment id, e.g. "fig11".
    pub id: String,
    /// Human title.
    pub title: String,
    /// Free-form notes lines (what the paper observed vs what we measured).
    pub notes: Vec<String>,
    /// The measured series.
    pub series: Vec<Series>,
}

impl Report {
    /// Create an empty report.
    ///
    /// Every report opens with a note recording the resolved knobs, the
    /// core count and the detected SIMD tier, so benchmark numbers are
    /// always interpretable (serial vs split-parallel runs produce
    /// identical rows but different walls).
    pub fn new(id: impl Into<String>, title: impl Into<String>) -> Self {
        let mut report = Report {
            id: id.into(),
            title: title.into(),
            notes: Vec::new(),
            series: Vec::new(),
        };
        report.note(format!(
            "config: {}; {} cores available; simd kernel: {}",
            maxson_engine::Config::from_env().describe(),
            maxson_engine::exec::default_threads(),
            maxson_json::kernels::active().name(),
        ));
        report
    }

    /// Add a note line.
    pub fn note(&mut self, line: impl Into<String>) {
        self.notes.push(line.into());
    }

    /// Add a note recording one measured query's parse-dedup counters:
    /// `parse_calls` evaluations served by `docs_parsed` actual parses.
    pub fn note_parse_dedup(&mut self, label: &str, metrics: &maxson_engine::ExecMetrics) {
        self.note(format!(
            "{label}: parse_calls={} docs_parsed={} dedup={:.2}x",
            metrics.parse_calls,
            metrics.docs_parsed,
            metrics.parse_dedup_factor()
        ));
    }

    /// Add a note embedding the top-3 operators by total recorded wall
    /// time from a tracer's span rollup (one traced run is enough; timed
    /// runs stay untraced so the numbers are unperturbed).
    pub fn note_top_operators(&mut self, label: &str, tracer: &maxson_engine::Tracer) {
        let rollup = tracer.rollup();
        if rollup.is_empty() {
            self.note(format!("{label}: top operators: (no spans recorded)"));
            return;
        }
        let top: Vec<String> = rollup
            .iter()
            .take(3)
            .map(|op| format!("{}x{} {:.4}s", op.name, op.count, op.total.as_secs_f64()))
            .collect();
        self.note(format!("{label}: top operators: {}", top.join(", ")));
    }

    /// Add a series.
    pub fn add(&mut self, series: Series) {
        self.series.push(series);
    }

    /// Render as an aligned text table: one row per x label, one column per
    /// series.
    pub fn to_text(&self) -> String {
        let mut out = String::new();
        let _ = writeln!(out, "=== {} — {} ===", self.id, self.title);
        for n in &self.notes {
            let _ = writeln!(out, "  {n}");
        }
        if self.series.is_empty() {
            return out;
        }
        // Collect union of x labels, preserving first-series order.
        let mut labels: Vec<String> = Vec::new();
        for s in &self.series {
            for (l, _) in &s.points {
                if !labels.contains(l) {
                    labels.push(l.clone());
                }
            }
        }
        let label_w = labels.iter().map(String::len).max().unwrap_or(1).max(8);
        let col_ws: Vec<usize> = self.series.iter().map(|s| s.name.len().max(12)).collect();
        let _ = write!(out, "{:<label_w$}  ", "");
        for (s, w) in self.series.iter().zip(&col_ws) {
            let _ = write!(out, "{:>w$}  ", s.name, w = w);
        }
        out.push('\n');
        for label in &labels {
            let _ = write!(out, "{label:<label_w$}  ");
            for (s, w) in self.series.iter().zip(&col_ws) {
                match s.points.iter().find(|(l, _)| l == label) {
                    Some((_, v)) => {
                        let _ = write!(out, "{:>w$.4}  ", v, w = w);
                    }
                    None => {
                        let _ = write!(out, "{:>w$}  ", "-", w = w);
                    }
                }
            }
            out.push('\n');
        }
        out
    }

    /// Serialize as JSON.
    pub fn to_json(&self) -> JsonValue {
        JsonValue::Object(vec![
            ("id".into(), JsonValue::from(self.id.as_str())),
            ("title".into(), JsonValue::from(self.title.as_str())),
            (
                "notes".into(),
                JsonValue::Array(
                    self.notes
                        .iter()
                        .map(|n| JsonValue::from(n.as_str()))
                        .collect(),
                ),
            ),
            (
                "series".into(),
                JsonValue::Array(
                    self.series
                        .iter()
                        .map(|s| {
                            JsonValue::Object(vec![
                                ("name".into(), JsonValue::from(s.name.as_str())),
                                (
                                    "points".into(),
                                    JsonValue::Array(
                                        s.points
                                            .iter()
                                            .map(|(l, v)| {
                                                JsonValue::Object(vec![
                                                    ("label".into(), JsonValue::from(l.as_str())),
                                                    ("value".into(), JsonValue::from(*v)),
                                                ])
                                            })
                                            .collect(),
                                    ),
                                ),
                            ])
                        })
                        .collect(),
                ),
            ),
        ])
    }

    /// Print to stdout and persist under `bench-results/<id>.json`.
    pub fn emit(&self) {
        println!("{}", self.to_text());
        let dir = results_dir();
        if fs::create_dir_all(&dir).is_ok() {
            let _ = fs::write(
                dir.join(format!("{}.json", self.id)),
                maxson_json::to_string_pretty(&self.to_json()),
            );
        }
    }
}

/// Where reports land (workspace-relative when run via cargo).
pub fn results_dir() -> PathBuf {
    std::env::var_os("MAXSON_BENCH_RESULTS")
        .map(PathBuf::from)
        .unwrap_or_else(|| PathBuf::from("bench-results"))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn text_table_aligns_and_fills_gaps() {
        let mut r = Report::new("figX", "demo");
        r.note("a note");
        let mut s1 = Series::new("Spark");
        s1.push("Q1", 1.5);
        s1.push("Q2", 2.5);
        let mut s2 = Series::new("Maxson");
        s2.push("Q1", 0.5);
        r.add(s1);
        r.add(s2);
        let text = r.to_text();
        assert!(text.contains("figX"));
        assert!(text.contains("a note"));
        assert!(text.contains("Q2"));
        assert!(text.contains('-'), "missing point renders as dash");
    }

    #[test]
    fn top_operator_note_ranks_by_wall_time() {
        let mut r = Report::new("figY", "rollup");
        let t = maxson_engine::Tracer::enabled();
        {
            let _a = t.span("scan");
            std::thread::sleep(std::time::Duration::from_millis(2));
        }
        {
            let _b = t.span("filter");
        }
        r.note_top_operators("Q1", &t);
        let text = r.to_text();
        assert!(text.contains("Q1: top operators: scanx1"), "{text}");
        assert!(text.contains("filterx1"));
        let mut empty = Report::new("figZ", "empty");
        empty.note_top_operators("Q2", &maxson_engine::Tracer::new());
        assert!(empty.to_text().contains("no spans recorded"));
    }

    #[test]
    fn json_round_trips_through_parser() {
        let mut r = Report::new("t3", "models");
        let mut s = Series::new("LR");
        s.push("precision", 1.0);
        r.add(s);
        let json = maxson_json::to_string(&r.to_json());
        let doc = maxson_json::parse(&json).unwrap();
        assert_eq!(doc.get("id").unwrap().as_str(), Some("t3"));
        let series = doc.get("series").unwrap().as_array().unwrap();
        assert_eq!(series.len(), 1);
    }
}
