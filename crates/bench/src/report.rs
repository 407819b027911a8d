//! Reporting helpers for the figure/table harness binaries: aligned
//! console tables, CSV emission, repeated-run timing (the paper
//! averages every point over 3 executions, §5.1), and the
//! machine-readable JSON bench report (`BENCH_5.json`) the CI
//! measured-bench lane records the perf trajectory with.

use std::fmt::Display;
use std::time::{Duration, Instant};

/// Times `f`, returning its value and the wall-clock duration.
pub fn time_it<T, F: FnOnce() -> T>(f: F) -> (T, Duration) {
    let start = Instant::now();
    let v = f();
    (v, start.elapsed())
}

/// Runs `f` `runs` times and returns the last value together with the
/// average duration — mirroring the paper's "every execution point is
/// averaged over 3 executions".
pub fn time_avg<T, F: FnMut() -> T>(runs: usize, mut f: F) -> (T, Duration) {
    assert!(runs >= 1);
    let mut total = Duration::ZERO;
    let mut last = None;
    for _ in 0..runs {
        let (v, d) = time_it(&mut f);
        total += d;
        last = Some(v);
    }
    (last.unwrap(), total / runs as u32)
}

/// An accumulating result table printed at the end of a harness run.
#[derive(Debug, Default)]
pub struct Report {
    columns: Vec<String>,
    rows: Vec<Vec<String>>,
    title: String,
}

impl Report {
    /// Creates a report with a title and column headers.
    pub fn new(title: &str, columns: &[&str]) -> Self {
        Report {
            columns: columns.iter().map(|s| s.to_string()).collect(),
            rows: Vec::new(),
            title: title.to_string(),
        }
    }

    /// Adds one row (stringifying each cell).
    pub fn row(&mut self, cells: &[&dyn Display]) {
        assert_eq!(cells.len(), self.columns.len(), "row arity mismatch");
        self.rows
            .push(cells.iter().map(|c| c.to_string()).collect());
    }

    /// Number of data rows.
    pub fn len(&self) -> usize {
        self.rows.len()
    }

    /// True if no rows were added.
    pub fn is_empty(&self) -> bool {
        self.rows.is_empty()
    }

    /// Renders an aligned console table.
    pub fn render(&self) -> String {
        let mut widths: Vec<usize> = self.columns.iter().map(String::len).collect();
        for r in &self.rows {
            for (i, c) in r.iter().enumerate() {
                widths[i] = widths[i].max(c.len());
            }
        }
        let mut out = String::new();
        out.push_str(&format!("== {} ==\n", self.title));
        let head: Vec<String> = self
            .columns
            .iter()
            .enumerate()
            .map(|(i, c)| format!("{c:>w$}", w = widths[i]))
            .collect();
        out.push_str(&head.join("  "));
        out.push('\n');
        out.push_str(&"-".repeat(head.join("  ").len()));
        out.push('\n');
        for r in &self.rows {
            let line: Vec<String> = r
                .iter()
                .enumerate()
                .map(|(i, c)| format!("{c:>w$}", w = widths[i]))
                .collect();
            out.push_str(&line.join("  "));
            out.push('\n');
        }
        out
    }

    /// Renders machine-readable CSV.
    pub fn csv(&self) -> String {
        let mut out = String::new();
        out.push_str(&self.columns.join(","));
        out.push('\n');
        for r in &self.rows {
            out.push_str(&r.join(","));
            out.push('\n');
        }
        out
    }

    /// Prints table + CSV block to stdout.
    pub fn print(&self) {
        println!("{}", self.render());
        println!("--- csv ---\n{}", self.csv());
    }
}

/// Formats a duration in milliseconds with 2 decimals.
pub fn ms(d: Duration) -> String {
    format!("{:.2}", d.as_secs_f64() * 1e3)
}

/// Escapes a string for embedding in a JSON document.
pub fn json_escape(s: &str) -> String {
    let mut out = String::with_capacity(s.len());
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out
}

/// One measured benchmark: the unit the vendored criterion appends to
/// the `CS_BENCH_JSON` sink and [`bench_report_json`] aggregates into
/// `BENCH_5.json`.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct BenchRecord {
    /// The benchmark's full name (`group/function/param`).
    pub name: String,
    /// Mean wall-clock time per iteration, in nanoseconds.
    pub mean_ns: u64,
    /// Iterations measured.
    pub iters: u64,
}

impl BenchRecord {
    /// Renders the one-line JSON object form used in the raw sink.
    pub fn to_json_line(&self) -> String {
        format!(
            r#"{{"name":"{}","mean_ns":{},"iters":{}}}"#,
            json_escape(&self.name),
            self.mean_ns,
            self.iters
        )
    }

    /// Parses a line produced by [`BenchRecord::to_json_line`] (or by
    /// the vendored criterion's sink, which writes the same shape).
    /// Returns `None` on anything that does not match; bench names
    /// never contain quotes, so no unescaping is needed.
    pub fn from_json_line(line: &str) -> Option<BenchRecord> {
        let line = line.trim();
        let name = line.split(r#""name":""#).nth(1)?.split('"').next()?;
        let field = |key: &str| -> Option<u64> {
            line.split(&format!(r#""{key}":"#))
                .nth(1)?
                .split(|c: char| !c.is_ascii_digit())
                .next()?
                .parse()
                .ok()
        };
        Some(BenchRecord {
            name: name.to_string(),
            mean_ns: field("mean_ns")?,
            iters: field("iters")?,
        })
    }
}

/// Renders the machine-readable bench report (the `BENCH_5.json`
/// document): schema id, free-form metadata, and the measured records
/// in input order.
pub fn bench_report_json(records: &[BenchRecord], meta: &[(&str, String)]) -> String {
    let mut out = String::from("{\n  \"schema\": \"cs-bench/1\"");
    for (k, v) in meta {
        out.push_str(&format!(
            ",\n  \"{}\": \"{}\"",
            json_escape(k),
            json_escape(v)
        ));
    }
    out.push_str(",\n  \"benchmarks\": [\n");
    for (i, r) in records.iter().enumerate() {
        out.push_str("    ");
        out.push_str(&r.to_json_line());
        if i + 1 < records.len() {
            out.push(',');
        }
        out.push('\n');
    }
    out.push_str("  ]\n}\n");
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn timing_helpers() {
        let (v, d) = time_it(|| 41 + 1);
        assert_eq!(v, 42);
        let (v, avg) = time_avg(3, || 7);
        assert_eq!(v, 7);
        assert!(avg <= d + Duration::from_secs(1));
    }

    #[test]
    fn report_renders_aligned() {
        let mut r = Report::new("demo", &["x", "time_ms"]);
        r.row(&[&1, &"10.00"]);
        r.row(&[&100, &"3.25"]);
        let s = r.render();
        assert!(s.contains("== demo =="));
        assert!(s.contains("100"));
        assert_eq!(r.len(), 2);
        let csv = r.csv();
        assert!(csv.starts_with("x,time_ms\n"));
        assert!(csv.contains("100,3.25"));
    }

    #[test]
    #[should_panic(expected = "row arity mismatch")]
    fn report_checks_arity() {
        let mut r = Report::new("demo", &["a", "b"]);
        r.row(&[&1]);
    }

    #[test]
    fn ms_format() {
        assert_eq!(ms(Duration::from_millis(1500)), "1500.00");
    }

    #[test]
    fn bench_record_json_roundtrip() {
        let r = BenchRecord {
            name: "ctp_algorithms/chain8/molesp".into(),
            mean_ns: 123_456,
            iters: 42,
        };
        let line = r.to_json_line();
        assert_eq!(BenchRecord::from_json_line(&line), Some(r));
        assert_eq!(BenchRecord::from_json_line("not json"), None);
        assert_eq!(BenchRecord::from_json_line(r#"{"name":"x"}"#), None);
    }

    #[test]
    fn bench_report_document_shape() {
        let records = vec![
            BenchRecord {
                name: "a/b".into(),
                mean_ns: 10,
                iters: 3,
            },
            BenchRecord {
                name: "c".into(),
                mean_ns: 20,
                iters: 5,
            },
        ];
        let doc = bench_report_json(&records, &[("commit", "abc123".into())]);
        assert!(doc.contains(r#""schema": "cs-bench/1""#));
        assert!(doc.contains(r#""commit": "abc123""#));
        assert!(doc.contains(r#""name":"a/b""#));
        // Every line must parse back.
        let parsed: Vec<_> = doc
            .lines()
            .filter_map(BenchRecord::from_json_line)
            .collect();
        assert_eq!(parsed, records);
    }

    #[test]
    fn json_escaping() {
        assert_eq!(json_escape(r#"a"b\c"#), r#"a\"b\\c"#);
        assert_eq!(json_escape("x\ny"), r"x\ny");
    }
}
